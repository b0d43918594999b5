(** Frozen indexes over a data graph.

    One [build] pass snapshots the graph into a {!Gql_graph.Csr} view,
    interns every node label and edge name into a snapshot-local
    {!Symtab}, and derives the access paths every engine's matcher wants
    instead of whole-graph scans:

    - [by_label]: label symbol -> complex nodes ({!Gql_graph.Iset.t}),
      the entry point for typed pattern nodes;
    - [by_value]: normalised atom value -> atom nodes, for constant
      rectangles and value point-lookups (normalisation follows
      [Value.compare_values]: numeric when the value coerces, textual
      otherwise, so ["12"], [12] and [12.0] share a bucket);
    - per-node adjacency partitioned by edge-name symbol ([out_named] /
      [in_named]), by [Attribute] kind and name ([attr_named]), by
      [Child] kind ([children] / [parents]) and by [Ref]/[Rel] kind
      ([ref_succ] / [ref_pred]), so a labelled edge constraint
      enumerates only matching neighbours;
    - [edges_named]: name symbol -> all (src, dst) pairs, for the WG-Log
      evaluator's globally negated edges;
    - a per-node interned label plane on the CSR view
      ([Csr.set_node_syms]), so "is this node labelled X?" is one
      integer compare against a symbol resolved once per query.

    All posting sets are sorted ascending and duplicate-free, which
    makes the indexed matcher enumerate embeddings in exactly the order
    of the scan-based one.  Per-node name-partitioned adjacency is keyed
    by the single integer [node * stride + name_sym], so a lookup hashes
    one immediate int and allocates nothing.

    Symbols are snapshot-local: ids from one build must never be
    compared with ids (or used against postings) of another.

    The index is a snapshot of graph *content*, not of graph identity.
    [build] and [Store.load] leave it in the graph's frozen-index slot,
    and [Graph.copy] hands that slot to the copy.  [refresh] returns the
    slot's index while the graph's (n_nodes, n_edges) still equal the
    index's version, and rebuilds otherwise: the data graph is
    append-only and node payloads are never mutated, so equal counts
    mean equal content.  A WG-Log fork therefore runs on its snapshot's
    index until its first derived edge, and [graph] of that index is the
    parent graph. *)

module Iset = Gql_graph.Iset

type vkey =
  | Num of float
  | Str of string

(** The bucket key of a value, consistent with [Value.equal_values]. *)
let vkey (v : Value.t) : vkey =
  match Value.as_number v with
  | Some f -> Num f
  | None -> Str (Value.to_string v)

(* Posting maps come in two representations behind one accessor set:
   indexes built in memory keep the hashtables the build pass filled
   (hot path unchanged); indexes loaded from a snapshot file keep the
   file's flat planes — sorted key array, offset array, one shared pool
   of postings — and slice sets out on demand, so loading costs three
   blits per map instead of millions of hashtable inserts. *)
type postings =
  | P_tbl of (int, Iset.t) Hashtbl.t
  | P_flat of { keys : int array;  (** sorted ascending *)
                off : int array;  (** length [|keys| + 1] *)
                pool : int array }

(* Rank of [key] in the sorted key array, or -1 when absent. *)
let p_rank (keys : int array) key =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if keys.(mid) < key then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length keys && keys.(!lo) = key then !lo else -1

let p_find p key : Iset.t =
  match p with
  | P_tbl h -> Option.value (Hashtbl.find_opt h key) ~default:Iset.empty
  | P_flat f ->
    let i = p_rank f.keys key in
    if i < 0 then Iset.empty
    else
      Iset.unsafe_of_sorted_array
        (Array.sub f.pool f.off.(i) (f.off.(i + 1) - f.off.(i)))

(* Membership without materialising the posting set — flat maps answer
   straight off the pool, so link tests stay allocation-free. *)
let p_mem p key v : bool =
  match p with
  | P_tbl h -> (
    match Hashtbl.find_opt h key with
    | None -> false
    | Some s -> Iset.mem s v)
  | P_flat f ->
    let i = p_rank f.keys key in
    i >= 0 && Iset.mem_range f.pool ~lo:f.off.(i) ~hi:f.off.(i + 1) v

let p_fold (f : int -> Iset.t -> 'a -> 'a) p acc : 'a =
  match p with
  | P_tbl h -> Hashtbl.fold f h acc
  | P_flat fl ->
    let acc = ref acc in
    for i = 0 to Array.length fl.keys - 1 do
      acc :=
        f fl.keys.(i)
          (Iset.unsafe_of_sorted_array
             (Array.sub fl.pool fl.off.(i) (fl.off.(i + 1) - fl.off.(i))))
          !acc
    done;
    !acc

(* Dense per-node set planes (children/parents/refs), same two shapes:
   an array of sets when built, offsets + pool when loaded. *)
type dense =
  | D_arr of Iset.t array
  | D_flat of { off : int array; pool : int array }

let d_get d n : Iset.t =
  match d with
  | D_arr a -> a.(n)
  | D_flat f ->
    Iset.unsafe_of_sorted_array
      (Array.sub f.pool f.off.(n) (f.off.(n + 1) - f.off.(n)))

let d_mem d n v : bool =
  match d with
  | D_arr a -> Iset.mem a.(n) v
  | D_flat f -> Iset.mem_range f.pool ~lo:f.off.(n) ~hi:f.off.(n + 1) v

(* Cold derived tables a loaded snapshot materialises on first demand
   (under [path_lock]); built indexes start in the ready state. *)
type vtbl =
  | V_ready of (vkey, Iset.t) Hashtbl.t
  | V_lazy of (unit -> (vkey, Iset.t) Hashtbl.t)

type etbl =
  | E_ready of (int, (int * int) array) Hashtbl.t
  | E_lazy of {
      counts : (int * int) array;
          (** (name sym, edge count) sorted by sym — answers the
              planner's cardinality probes without materialising *)
      mk : unit -> (int, (int * int) array) Hashtbl.t;
    }

type t = {
  data : Graph.t;
  csr : (Graph.node_kind, Graph.edge) Gql_graph.Csr.t;
  version : int * int;  (** (n_nodes, n_edges) at build time *)
  symtab : Symtab.t;
  stride : int;  (** symtab length at build end; adjacency key stride *)
  by_label : postings;  (** label sym -> complex nodes *)
  mutable by_value : vtbl;
  all_complex : Iset.t;
  all_atoms : Iset.t;
  out_by_name : postings;  (** node * stride + name sym *)
  in_by_name : postings;
  attr_out : postings;
  child_out : dense;
  child_in : dense;
  ref_out : dense;
  ref_in : dense;
  mutable edges_by_name : etbl;  (** name sym *)
  (* Regular-path engine state, all lazy and mutex-guarded (the serve
     pool shares one snapshot across worker domains): per-lane edge-sym
     planes aligned with the CSR out/in slices, per-automaton
     specialisations, and the path-result memo.  All of it dies with
     the snapshot, so the existing (n_nodes, n_edges) version scheme
     invalidates it for free. *)
  path_lock : Mutex.t;
  planes : (int, int array * int array) Hashtbl.t;  (** hint -> out, in *)
  path_specs : (int, Gql_graph.Regpath.spec) Hashtbl.t;  (** automaton uid *)
  path_memo : (int * int * int, Iset.t) Hashtbl.t;  (** uid, dir, node *)
  mutable path_elems : int;
      (** ints held by [path_specs] and [path_memo]; see [path_budget] *)
}

type Graph.frozen += Frozen of t

(** Leave [t] in [g]'s frozen-index slot, where [refresh g] finds it. *)
let attach (g : Graph.t) (t : t) = Graph.set_frozen g (Frozen t)

let build (data : Graph.t) : t =
  let csr = Gql_graph.Csr.freeze (Graph.digraph data) in
  let n = Gql_graph.Csr.n_nodes csr in
  let symtab = Symtab.create () in
  let by_label_l : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  let by_value_l : (vkey, int list ref) Hashtbl.t = Hashtbl.create 256 in
  let complex_l = ref [] and atoms_l = ref [] in
  let node_syms = Array.make n (-1) in
  let bucket tbl key v =
    match Hashtbl.find_opt tbl key with
    | Some r -> r := v :: !r
    | None -> Hashtbl.replace tbl key (ref [ v ])
  in
  for i = n - 1 downto 0 do
    match Gql_graph.Csr.payload csr i with
    | Graph.Complex l ->
      let sym = Symtab.intern symtab l in
      node_syms.(i) <- sym;
      bucket by_label_l sym i;
      complex_l := i :: !complex_l
    | Graph.Atom v ->
      bucket by_value_l (vkey v) i;
      atoms_l := i :: !atoms_l
  done;
  Gql_graph.Csr.set_node_syms csr node_syms;
  (* Adjacency accumulation keyed by (node, name sym) tuples; re-keyed
     below to [node * stride + sym] once the symbol table is final. *)
  let out_name_l : (int * int, int list ref) Hashtbl.t = Hashtbl.create (4 * n) in
  let in_name_l : (int * int, int list ref) Hashtbl.t = Hashtbl.create (4 * n) in
  let attr_l : (int * int, int list ref) Hashtbl.t = Hashtbl.create n in
  let edges_name_l : (int, (int * int) list ref) Hashtbl.t = Hashtbl.create 64 in
  let child_out_l = Array.make n [] and child_in_l = Array.make n [] in
  let ref_out_l = Array.make n [] and ref_in_l = Array.make n [] in
  Gql_graph.Csr.iter_edges
    (fun ~src ~dst (e : Graph.edge) ->
      let nsym = Symtab.intern symtab e.Graph.name in
      bucket out_name_l (src, nsym) dst;
      bucket in_name_l (dst, nsym) src;
      bucket edges_name_l nsym (src, dst);
      match e.Graph.kind with
      | Graph.Child ->
        child_out_l.(src) <- dst :: child_out_l.(src);
        child_in_l.(dst) <- src :: child_in_l.(dst)
      | Graph.Attribute -> bucket attr_l (src, nsym) dst
      | Graph.Ref | Graph.Rel ->
        ref_out_l.(src) <- dst :: ref_out_l.(src);
        ref_in_l.(dst) <- src :: ref_in_l.(dst))
    csr;
  let stride = max 1 (Symtab.length symtab) in
  let finish_syms tbl src =
    (* node-label buckets: one entry per node, no duplicates possible *)
    Hashtbl.iter
      (fun key r -> Hashtbl.replace tbl key (Iset.of_array (Array.of_list !r)))
      src;
    tbl
  in
  let finish_adj src =
    (* parallel edges can repeat a neighbour; [Iset.of_array] dedups *)
    let out = Hashtbl.create (Hashtbl.length src) in
    Hashtbl.iter
      (fun (node, nsym) r ->
        Hashtbl.replace out ((node * stride) + nsym)
          (Iset.of_array (Array.of_list !r)))
      src;
    out
  in
  let adj_sets l = Array.map (fun lst -> Iset.of_array (Array.of_list lst)) l in
  let t = {
    data;
    csr;
    version = (Graph.n_nodes data, Graph.n_edges data);
    symtab;
    stride;
    by_label =
      P_tbl (finish_syms (Hashtbl.create (Hashtbl.length by_label_l)) by_label_l);
    by_value =
      V_ready
        (finish_syms (Hashtbl.create (Hashtbl.length by_value_l)) by_value_l);
    all_complex = Iset.unsafe_of_sorted_array (Array.of_list !complex_l);
    all_atoms = Iset.unsafe_of_sorted_array (Array.of_list !atoms_l);
    out_by_name = P_tbl (finish_adj out_name_l);
    in_by_name = P_tbl (finish_adj in_name_l);
    attr_out = P_tbl (finish_adj attr_l);
    child_out = D_arr (adj_sets child_out_l);
    child_in = D_arr (adj_sets child_in_l);
    ref_out = D_arr (adj_sets ref_out_l);
    ref_in = D_arr (adj_sets ref_in_l);
    edges_by_name =
      E_ready
        (let out = Hashtbl.create (Hashtbl.length edges_name_l) in
         Hashtbl.iter
           (fun key r ->
             let a = Array.of_list !r in
             Array.sort compare a;
             Hashtbl.replace out key a)
           edges_name_l;
         out);
    path_lock = Mutex.create ();
    planes = Hashtbl.create 4;
    path_specs = Hashtbl.create 8;
    path_memo = Hashtbl.create 64;
    path_elems = 0;
  } in
  attach data t;
  t

(* --- lookups --------------------------------------------------------- *)

let csr t = t.csr

(** The graph this index was built from or loaded with.  A copy of that
    graph shares the index until it grows, so [graph] may be the
    parent, not the graph being queried: an index describes content,
    not identity. *)
let graph t = t.data
let n_nodes t = fst t.version
let n_edges t = snd t.version

(** The snapshot's symbol table (labels and edge names). *)
let symtab t = t.symtab

(** Interned label symbol of node [n]; [-1] for atoms.  One integer
    compare against [label_sym] answers a typed-node test. *)
let node_sym t n = Gql_graph.Csr.node_sym t.csr n

(** The symbol of label/name [s] in this snapshot, or [-1] when nothing
    in the snapshot carries it (so no node/edge can match). *)
let label_sym t s = match Symtab.find t.symtab s with Some i -> i | None -> -1

let with_lock m f =
  Mutex.lock m;
  match f () with
  | v ->
    Mutex.unlock m;
    v
  | exception e ->
    Mutex.unlock m;
    raise e

(* Force a cold derived table exactly once; the fast path is one
   immutable-looking field read, the slow path runs under [path_lock]
   so concurrent worker domains materialise a loaded snapshot once. *)
let by_value_tbl t : (vkey, Iset.t) Hashtbl.t =
  match t.by_value with
  | V_ready h -> h
  | V_lazy _ ->
    with_lock t.path_lock (fun () ->
        match t.by_value with
        | V_ready h -> h
        | V_lazy mk ->
          let h = mk () in
          t.by_value <- V_ready h;
          h)

let edges_tbl t : (int, (int * int) array) Hashtbl.t =
  match t.edges_by_name with
  | E_ready h -> h
  | E_lazy _ ->
    with_lock t.path_lock (fun () ->
        match t.edges_by_name with
        | E_ready h -> h
        | E_lazy { mk; _ } ->
          let h = mk () in
          t.edges_by_name <- E_ready h;
          h)

(** Complex nodes carrying label symbol [sym], sorted. *)
let complex_with_sym t sym : Iset.t =
  if sym < 0 then Iset.empty else p_find t.by_label sym

(** Complex nodes carrying label [l], sorted. *)
let complex_with_label t l : Iset.t = complex_with_sym t (label_sym t l)

(** Complex nodes whose label satisfies [p] — one test per *distinct*
    label, not per node (this is how regex name tests scale). *)
let complex_matching t p : Iset.t =
  let parts =
    p_fold
      (fun sym nodes acc ->
        if p (Symtab.name t.symtab sym) then nodes :: acc else acc)
      t.by_label []
  in
  match parts with
  | [] -> Iset.empty
  | [ s ] -> s
  | parts -> List.fold_left Iset.union Iset.empty parts

(** Atom nodes equal (in the [Value.equal_values] sense) to [v]. *)
let atoms_equal t v : Iset.t =
  Option.value (Hashtbl.find_opt (by_value_tbl t) (vkey v)) ~default:Iset.empty

let all_complex t = t.all_complex
let all_atoms t = t.all_atoms

let labels t =
  p_fold (fun sym _ acc -> Symtab.name t.symtab sym :: acc) t.by_label []
  |> List.sort compare

(* name-partitioned adjacency, keyed by one immediate int *)
let adj_named tbl t n sym : Iset.t =
  if sym < 0 then Iset.empty else p_find tbl ((n * t.stride) + sym)

let adj_mem tbl t n sym dst : bool =
  sym >= 0 && p_mem tbl ((n * t.stride) + sym) dst

let out_named_sym t n sym = adj_named t.out_by_name t n sym
let in_named_sym t n sym = adj_named t.in_by_name t n sym
let attr_named_sym t n sym = adj_named t.attr_out t n sym
let out_named t n name = out_named_sym t n (label_sym t name)
let in_named t n name = in_named_sym t n (label_sym t name)
let attr_named t n name = attr_named_sym t n (label_sym t name)
let children t n = d_get t.child_out n
let parents t n = d_get t.child_in n
let ref_succ t n = d_get t.ref_out n
let ref_pred t n = d_get t.ref_in n

let edges_named t name : (int * int) array =
  match Symtab.find t.symtab name with
  | None -> [||]
  | Some sym -> Option.value (Hashtbl.find_opt (edges_tbl t) sym) ~default:[||]

(** O(1) total degree, for the matcher's fail-first scorer. *)
let degree t n = Gql_graph.Csr.degree t.csr n

(* --- statistics ------------------------------------------------------- *)

(** Snapshot statistics for the planner ({!Gql_algebra} via
    the provider, and EXPLAIN's summary line): sizes, the CSR degree
    summary, and per-edge-name edge counts. *)
type stats = {
  st_nodes : int;
  st_edges : int;
  st_avg_out_degree : float;  (** edges / nodes, from the CSR planes *)
  st_max_out_degree : int;
  st_name_counts : (string * int) list;
      (** edge name -> total edge count, sorted by name *)
}

(** Total number of edges named [name] in the snapshot — a per-symbol
    fan-out numerator (divide by a source cardinality for a mean). *)
let name_edge_count t name : int =
  match Symtab.find t.symtab name with
  | None -> 0
  | Some sym -> (
    match t.edges_by_name with
    | E_ready h -> (
      match Hashtbl.find_opt h sym with
      | None -> 0
      | Some a -> Array.length a)
    | E_lazy { counts; _ } ->
      (* planner probes must not force pair materialisation *)
      let lo = ref 0 and hi = ref (Array.length counts) in
      while !lo < !hi do
        let mid = !lo + ((!hi - !lo) / 2) in
        if fst counts.(mid) < sym then lo := mid + 1 else hi := mid
      done;
      if !lo < Array.length counts && fst counts.(!lo) = sym then
        snd counts.(!lo)
      else 0)

let stats t : stats =
  {
    st_nodes = n_nodes t;
    st_edges = n_edges t;
    st_avg_out_degree = Gql_graph.Csr.avg_out_degree t.csr;
    st_max_out_degree = Gql_graph.Csr.max_out_degree t.csr;
    st_name_counts =
      (match t.edges_by_name with
      | E_ready h ->
        Hashtbl.fold
          (fun sym pairs acc ->
            (Symtab.name t.symtab sym, Array.length pairs) :: acc)
          h []
      | E_lazy { counts; _ } ->
        Array.to_list counts
        |> List.map (fun (sym, c) -> (Symtab.name t.symtab sym, c)))
      |> List.sort compare;
  }

(* --- Homo navigation builders ---------------------------------------- *)

(* Navs resolve their name symbol once at construction, not per hop. *)

(** Edges named [name], any kind — exactly WG-Log's label semantics, so
    the nav is exact. *)
let nav_name t name : Gql_graph.Homo.nav =
  let sym = label_sym t name in
  {
    nav_out = Some (fun n -> out_named_sym t n sym);
    nav_in = Some (fun n -> in_named_sym t n sym);
    nav_links = Some (fun src dst -> adj_mem t.out_by_name t src sym dst);
    nav_exact = true;
  }

(** [Child]-kind edges, any name.  Exact for unpositioned containment. *)
let nav_child t : Gql_graph.Homo.nav =
  {
    nav_out = Some (fun n -> children t n);
    nav_in = Some (fun n -> parents t n);
    nav_links = Some (fun src dst -> d_mem t.child_out src dst);
    nav_exact = true;
  }

(** [Child]-kind edges used only for candidate enumeration (a superset):
    positioned containment re-checks the ordinal via the constraint. *)
let nav_child_superset t : Gql_graph.Homo.nav =
  {
    nav_out = Some (fun n -> children t n);
    nav_in = Some (fun n -> parents t n);
    nav_links = None;
    nav_exact = false;
  }

(** [Attribute]-kind edges named [name].  Exact on the forward direction
    and the link test; reverse lookups fall back to the scan. *)
let nav_attr t name : Gql_graph.Homo.nav =
  let sym = label_sym t name in
  {
    nav_out = Some (fun n -> attr_named_sym t n sym);
    nav_in = None;
    nav_links = Some (fun src dst -> adj_mem t.attr_out t src sym dst);
    nav_exact = true;
  }

(** [Ref]/[Rel]-kind edges, any name — exact. *)
let nav_ref t : Gql_graph.Homo.nav =
  {
    nav_out = Some (fun n -> ref_succ t n);
    nav_in = Some (fun n -> ref_pred t n);
    nav_links = Some (fun src dst -> d_mem t.ref_out src dst);
    nav_exact = true;
  }

(** [Ref]/[Rel] edges named [name]: name-partitioned supersets for
    enumeration (the name table ignores kind), exact checks deferred. *)
let nav_ref_named t name : Gql_graph.Homo.nav =
  let sym = label_sym t name in
  {
    nav_out = Some (fun n -> out_named_sym t n sym);
    nav_in = Some (fun n -> in_named_sym t n sym);
    nav_links = None;
    nav_exact = false;
  }

(* --- regular-path navigation ------------------------------------------ *)

module Rp = Gql_graph.Regpath

(** Edge-plane lane hints for {!Rp.compile_classified}: which edges a
    snapshot lane admits before the symbol test even runs.  [plane_name]
    admits every edge (MATCH path semantics), [plane_rel] excludes
    [Attribute] edges (WG-Log arcs), [plane_child] admits only [Child]
    edges (XML-GL deep containment).  Hint [0] means no plane: the
    engine tests edges with the leaf predicates. *)
let plane_name = 1

let plane_rel = 2
let plane_child = 3

(* Per-edge interned name, or [-1] where the lane rejects the edge —
   index-aligned with the CSR out/in label slices, so a plane-mode
   search tests each hop with one integer compare. *)
let plane t hint : int array * int array =
  match with_lock t.path_lock (fun () -> Hashtbl.find_opt t.planes hint) with
  | Some p -> p
  | None ->
    let enc (e : Graph.edge) =
      let admitted =
        if hint = plane_rel then e.Graph.kind <> Graph.Attribute
        else if hint = plane_child then e.Graph.kind = Graph.Child
        else true
      in
      if not admitted then -1
      else
        (* every frozen edge name was interned during [build] *)
        match Symtab.find t.symtab e.Graph.name with Some s -> s | None -> -1
    in
    let p =
      ( Gql_graph.Csr.map_out_labels enc t.csr,
        Gql_graph.Csr.map_in_labels enc t.csr )
    in
    with_lock t.path_lock (fun () ->
        match Hashtbl.find_opt t.planes hint with
        | Some p -> p
        | None ->
          Hashtbl.replace t.planes hint p;
          p)

(* [path_specs] and [path_memo] are keyed by automaton uid, and every
   compile mints a fresh uid: each ad-hoc query, and each WG-Log run on a
   fork that shares this index.  So once the two tables hold more ints
   than a budget proportional to the snapshot, both are dropped whole.
   That only trades time for memory: the memo never changes an answer
   (GQL_PATH_MEMO=0 runs without it).  Caller holds [path_lock]. *)
let path_budget t = 16 * max 4096 (n_nodes t)

let path_store t tbl key v ~ints =
  if not (Hashtbl.mem tbl key) then begin
    if t.path_elems + ints > path_budget t then begin
      Hashtbl.reset t.path_specs;
      Hashtbl.reset t.path_memo;
      t.path_elems <- 0
    end;
    Hashtbl.replace tbl key v;
    t.path_elems <- t.path_elems + ints
  end

(** Ints the path tables hold now; never above [path_budget] by more
    than one entry. *)
let path_memo_ints t = with_lock t.path_lock (fun () -> t.path_elems)

(* Automaton leaves resolved against this snapshot's interner, cached
   per automaton uid (names interned after the freeze resolve to the
   never-matching sentinel — they cannot name any frozen edge). *)
let path_spec t rp : Rp.spec =
  let uid = Rp.uid rp in
  match with_lock t.path_lock (fun () -> Hashtbl.find_opt t.path_specs uid) with
  | Some s -> s
  | None ->
    let s = Rp.specialise rp ~intern:(fun name -> label_sym t name) in
    with_lock t.path_lock (fun () ->
        path_store t t.path_specs uid s ~ints:(1 + Array.length s));
    s

(* The memo can only trade memory for time — disabling it (debugging,
   memory ceilings) must not change any result. *)
let path_memo_enabled =
  match Sys.getenv_opt "GQL_PATH_MEMO" with Some "0" -> false | _ -> true

let path_run t rp ~(rev : bool) n : Iset.t =
  let hint = Rp.plane_hint rp in
  if hint = 0 then
    if rev then Rp.reachable_frozen_rev_set rp t.csr n
    else Rp.reachable_frozen_set rp t.csr n
  else
    let spec = path_spec t rp in
    let out_p, in_p = plane t hint in
    if rev then Rp.reachable_rev_plane rp spec t.csr ~plane:in_p n
    else Rp.reachable_plane rp spec t.csr ~plane:out_p n

(* Compute outside the lock: a racing duplicate computation is benign
   (both sides produce the same set) and path searches are far too slow
   to serialise across worker domains. *)
let path_cached t rp ~(rev : bool) n : Iset.t =
  if not path_memo_enabled then path_run t rp ~rev n
  else begin
    let key = (Rp.uid rp, (if rev then 1 else 0), n) in
    match with_lock t.path_lock (fun () -> Hashtbl.find_opt t.path_memo key) with
    | Some s ->
      Rp.note_memo_hit ();
      s
    | None ->
      Rp.note_memo_miss ();
      let s = path_run t rp ~rev n in
      with_lock t.path_lock (fun () ->
          path_store t t.path_memo key s ~ints:(1 + Iset.length s));
      s
  end

let path_connects t rp ~src ~dst : bool =
  if path_memo_enabled then Iset.mem (path_cached t rp ~rev:false src) dst
  else
    (* no memo to reuse or fill: take the early-exit search *)
    let hint = Rp.plane_hint rp in
    if hint = 0 then Rp.connects_frozen rp t.csr ~src ~dst
    else
      let spec = path_spec t rp in
      let out_p, _ = plane t hint in
      Rp.connects_plane rp spec t.csr ~plane:out_p ~src ~dst

(** Per-source reachable sets resolved in one scratch sweep, filling the
    memo as a side effect.  Sources already memoised are served from the
    memo; the rest run on the snapshot's plane. *)
let path_reachable_batch t rp (srcs : int array) : Iset.t array =
  Array.map (fun src -> path_cached t rp ~rev:false src) srcs

(** Regular-path navigation over the frozen view: specialised automaton
    on the snapshot's symbol plane, memoised per (automaton, direction,
    node), with backward navigation answered by the reverse automaton
    instead of a whole-graph scan. *)
let nav_path t (rp : Graph.edge Rp.t) : Gql_graph.Homo.nav =
  {
    nav_out = Some (fun n -> path_cached t rp ~rev:false n);
    nav_in = Some (fun n -> path_cached t rp ~rev:true n);
    nav_links = Some (fun src dst -> path_connects t rp ~src ~dst);
    nav_exact = true;
  }

(** Assemble a provider from per-pattern-node candidate sets and
    per-edge navigation (both indexed by pattern position / [p_edges]
    order). *)
let provider ?(navs : Gql_graph.Homo.nav option array = [||]) t
    ~(candidates : int -> Iset.t option) :
    (Graph.node_kind, Graph.edge) Gql_graph.Homo.provider =
  {
    Gql_graph.Homo.prov_candidates = candidates;
    prov_degree = Some (degree t);
    prov_nav = (fun i -> if i < Array.length navs then navs.(i) else None);
  }

(* --- the graph's slot ---------------------------------------------------- *)

(** The index for [data]: the one in its frozen-index slot while the
    graph has not grown since that index was built (append-only graphs
    make size a sound version stamp), otherwise a fresh [build], which
    replaces it in the slot. *)
let refresh (data : Graph.t) : t =
  match Graph.frozen data with
  | Some (Frozen idx) when idx.version = (Graph.n_nodes data, Graph.n_edges data)
    ->
    idx
  | Some _ | None -> build data
