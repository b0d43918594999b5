(** The LRU plan cache.

    Planning a MATCH query against a frozen snapshot is deterministic
    but not free: the planner scans for cardinality estimates, orders
    the joins and samples fan-outs for EXPLAIN's estimates.  Serve
    traffic repeats the same few queries against the same snapshot, so
    the planned form ({!Gql_match.Eval.prepared}) is cached keyed by
    everything it depends on: the document name *and its snapshot
    version* plus the prepared query's hash (the same MD5 `Qcache`
    keys by).  Invalidation mirrors {!Rcache}: re-[LOAD]ing a document
    bumps its version, and {!purge_doc} eagerly drops dead entries.

    The value type is polymorphic so the cache stores prepared plans
    without this module depending on the front-ends.  Same intrusive
    doubly-linked LRU under one mutex as {!Rcache}. *)

type key = { doc : string; version : int; qhash : string }

type 'a node = {
  key : key;
  value : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

type 'a t = {
  mutex : Mutex.t;
  capacity : int;
  table : (key, 'a node) Hashtbl.t;
  mutable head : 'a node option;  (** most recently used *)
  mutable tail : 'a node option;
}

let create ?(capacity = 256) () =
  {
    mutex = Mutex.create ();
    capacity = max 1 capacity;
    table = Hashtbl.create 64;
    head = None;
    tail = None;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let find t key : 'a option =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | None -> None
      | Some n ->
        unlink t n;
        push_front t n;
        Some n.value)

let add t key value =
  locked t (fun () ->
      (match Hashtbl.find_opt t.table key with
      | Some old ->
        unlink t old;
        Hashtbl.remove t.table key
      | None -> ());
      let n = { key; value; prev = None; next = None } in
      Hashtbl.replace t.table key n;
      push_front t n;
      while Hashtbl.length t.table > t.capacity do
        match t.tail with
        | None -> Hashtbl.reset t.table (* unreachable *)
        | Some victim ->
          unlink t victim;
          Hashtbl.remove t.table victim.key
      done)

(** Drop every entry of [doc] (any version) — called on re-[LOAD]. *)
let purge_doc t doc =
  locked t (fun () ->
      let victims =
        Hashtbl.fold
          (fun k n acc -> if k.doc = doc then n :: acc else acc)
          t.table []
      in
      List.iter
        (fun n ->
          unlink t n;
          Hashtbl.remove t.table n.key)
        victims)

let length t = locked t (fun () -> Hashtbl.length t.table)
