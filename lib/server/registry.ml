(** The document registry: named, versioned, frozen snapshots.

    [LOAD] parses the XML, encodes the data graph and builds the frozen
    {!Gql_data.Index} *once*; the resulting snapshot is then shared
    immutably by every worker domain — reads need no lock because
    nothing ever mutates a published snapshot.  Re-loading a name
    installs a fresh snapshot under a bumped [version]; the version is
    part of every result-cache key, so cached results of the old
    snapshot can never be served for the new one.  The index carries
    the snapshot's {!Gql_data.Symtab} — symbol ids are snapshot-local,
    so a re-load builds a fresh interner along with the fresh index and
    ids must never be held across, or compared between, versions.

    Publishes are keyed by a content digest: re-loading an identical
    document (or snapshot file) under the same name is recognised
    *before* any parse/index work, returns the existing snapshot with
    its version unchanged, and therefore keeps every [Rcache]/[Pcache]
    entry warm — only genuinely new content invalidates.

    The only mutation a query can demand — WG-Log's deductive fixpoint —
    happens on a {!fork}: a private copy of the data graph, discarded
    after the request.  The copy carries the snapshot's frozen index in
    its slot ({!Gql_data.Graph.copy}), so a fork costs the adjacency
    copy and no re-freeze; the fork builds its own index only once it
    has grown. *)

type snapshot = {
  name : string;
  version : int;
  key : string;  (** content digest of the underlying doc/file *)
  db : Gql_core.Gql.db;  (** graph + document + DTD, treated read-only *)
  index : Gql_data.Index.t;  (** frozen CSR + access paths *)
  nodes : int;
  edges : int;
}

type t = {
  mutex : Mutex.t;
  table : (string, snapshot) Hashtbl.t;
  versions : (string, int) Hashtbl.t;  (** survives re-loads *)
}

let create () =
  { mutex = Mutex.create (); table = Hashtbl.create 8; versions = Hashtbl.create 8 }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* The digest-reuse fast path: same name, same content key — nothing to
   do, caches stay warm.  An empty key never matches (unkeyed publishes
   always install fresh). *)
let find_keyed t name key : snapshot option =
  if key = "" then None
  else
    locked t (fun () ->
        match Hashtbl.find_opt t.table name with
        | Some s when s.key = key -> Some s
        | Some _ | None -> None)

let install t name key (db : Gql_core.Gql.db) (index : Gql_data.Index.t) :
    snapshot =
  let nodes, edges = Gql_core.Gql.stats db in
  locked t (fun () ->
      let version = 1 + Option.value ~default:0 (Hashtbl.find_opt t.versions name) in
      Hashtbl.replace t.versions name version;
      let snap = { name; version; key; db; index; nodes; edges } in
      Hashtbl.replace t.table name snap;
      snap)

(** Index [db]'s graph and install it under [name].  With [key], an
    existing snapshot carrying the same key is returned as-is (no
    version bump, no index build). *)
let publish ?(key = "") t name (db : Gql_core.Gql.db) : snapshot =
  match find_keyed t name key with
  | Some snap -> snap
  | None -> install t name key db (Gql_data.Index.build db.Gql_core.Gql.graph)

(** Parse, encode and index an XML source under [name].  Keyed by the
    source digest: re-loading byte-identical XML skips even the parse
    and returns the current snapshot, version unchanged. *)
let load_xml t ~name (xml : string) : (snapshot, string) result =
  let key = "xml-" ^ Digest.to_hex (Digest.string xml) in
  match find_keyed t name key with
  | Some snap -> Ok snap
  | None -> (
    match Gql_core.Gql.load_xml_string xml with
    | db -> Ok (publish ~key t name db)
    | exception Gql_core.Gql.Error msg -> Error msg)

(** Load a snapshot file ({!Gql_data.Store}) under [name].  Keyed by the
    file's content key, so re-loading an unchanged file bumps no
    version; the prebuilt index is installed directly — no re-freeze. *)
let load_snapshot t ~name (path : string) : (snapshot, string) result =
  match Gql_data.Store.file_key path with
  | exception (Gql_data.Store.Invalid_snapshot _ as e) ->
    Error (Gql_data.Store.describe e)
  | exception Sys_error msg -> Error msg
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | key -> (
    match find_keyed t name key with
    | Some snap -> Ok snap
    | None -> (
      match Gql_data.Store.load ~path with
      | graph, index ->
        Ok (install t name key (Gql_core.Gql.of_snapshot graph index) index)
      | exception (Gql_data.Store.Invalid_snapshot _ as e) ->
        Error (Gql_data.Store.describe e)
      | exception Sys_error msg -> Error msg
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)))

(** Register an existing entity graph (databases that never were XML,
    e.g. the WG-Log restaurant base). *)
let add_graph t ~name (g : Gql_data.Graph.t) : snapshot =
  publish t name (Gql_core.Gql.of_graph g)

let find t name : snapshot option =
  locked t (fun () -> Hashtbl.find_opt t.table name)

let names t : string list =
  locked t (fun () ->
      Hashtbl.fold (fun k _ acc -> k :: acc) t.table [] |> List.sort compare)

(** A private mutable copy of the snapshot's graph for deductive runs,
    starting on the snapshot's frozen index. *)
let fork (snap : snapshot) : Gql_data.Graph.t =
  Gql_data.Graph.copy snap.db.Gql_core.Gql.graph
