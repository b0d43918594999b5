(** The XML-GL matcher: from a query graph to the set of bindings.

    Compilation to [Gql_graph.Homo]:
    - every query node becomes a pattern node whose candidate predicate
      combines the shape test (box -> complex node, circle -> atom) with
      any *local* content predicate (pushed down for pruning);
    - containment edges become direct-edge constraints, deep edges
      become regular paths over Child edges, attribute edges match
      [Attribute] edges by name, reference edges match [Ref]/[Rel];
    - a content/attribute circle with several incoming edges is the
      paper's *value join*: it is split into one pattern node per
      incoming edge plus value-equality filters (two distinct text nodes
      with equal values must join, identity would be too strong);
    - [Absent] edges are removed from the positive pattern and enforced
      as negative post-filters;
    - ordered containment (the tick) is checked per embedding: the bound
      children must appear in the same relative document order as the
      pattern edges.

    The result of matching is a list of environments mapping query node
    ids to data nodes. *)

open Gql_data

type binding = int array
(** [b.(q)] = data node bound to query node [q]. *)

(** A name test with its regex compiled. *)
type name_test =
  | Exact of string
  | Any_name
  | Name_re of Gql_regex.Chre.t

(** One query node's candidate tests with every regex compiled: built
    once per query by {!compile}, applied per candidate. *)
type node_test = {
  qnode : Ast.qnode;
  name : name_test option;  (** [None] for circles *)
  local : Predicate.compiled option;
      (** the local predicate, pushed into candidate selection *)
}

let node_test (qn : Ast.qnode) : node_test =
  let name =
    match qn.q_kind with
    | Ast.Q_elem (Ast.Exact n) -> Some (Exact n)
    | Ast.Q_elem Ast.Any_name -> Some Any_name
    | Ast.Q_elem (Ast.Name_re pattern) ->
      Some (Name_re (Gql_regex.Chre.compile pattern))
    | Ast.Q_content | Ast.Q_attr -> None
  in
  let local =
    match qn.q_pred with
    | Some p when Predicate.is_local p -> Some (Predicate.compile p)
    | Some _ | None -> None
  in
  { qnode = qn; name; local }

type compiled = {
  query : Ast.query;
  pattern : (Graph.node_kind, Graph.edge) Gql_graph.Homo.pattern;
  qpos : int array;
      (** query node -> pattern node, or -1 for nodes that exist only as
          targets of [Absent] edges (they never bind) *)
  pat_to_query : int array;  (** pattern node -> query node *)
  node_tests : node_test array;  (** query node -> its compiled tests *)
  value_join_groups : int list list;
      (** pattern nodes that must agree on value *)
  absent_checks : (int * (int -> Graph.node_kind -> bool)) list;
      (** (pattern node of src, predicate of the absent child spec) *)
  ordered_groups : (int * int list) list;
      (** (src pattern node, dst pattern nodes in pattern order) *)
  cross_preds : (int * Predicate.compiled) list;
      (** non-local predicates: (query node, predicate) *)
  edge_kinds : Ast.qedge_kind list;
      (** the query-edge kind behind each element of [pattern.p_edges]
          (same order) — what the index-backed provider navigates by *)
}

let name_test_matches data test dn =
  match Graph.label data dn with
  | None -> false
  | Some l -> (
    match test with
    | Exact n -> l = n
    | Any_name -> true
    | Name_re re -> Gql_regex.Chre.matches re l)

(* With an index in hand, a name test is an integer compare against the
   node's interned label symbol ([Index.node_sym], -1 for atoms) — one
   symbol resolution per *query*, not one string compare per candidate.
   Regex name tests memoise their verdict per label symbol, so the
   automaton runs once per distinct label ever probed (a benign write
   race under domains: every domain computes the same byte). *)
let name_test_sym (idx : Index.t) test : int -> bool =
  match test with
  | Exact n ->
    let sym = Index.label_sym idx n in
    fun dn -> sym >= 0 && Index.node_sym idx dn = sym
  | Any_name -> fun dn -> Index.node_sym idx dn >= 0
  | Name_re re ->
    let n_syms = Gql_data.Symtab.length (Index.symtab idx) in
    let memo = Bytes.make (max 1 n_syms) '\000' in
    fun dn ->
      let s = Index.node_sym idx dn in
      s >= 0
      && (match Bytes.get memo s with
         | '\001' -> true
         | '\002' -> false
         | _ ->
           let ok =
             Gql_regex.Chre.matches re
               (Gql_data.Symtab.name (Index.symtab idx) s)
           in
           Bytes.set memo s (if ok then '\001' else '\002');
           ok)

(* Candidate predicate for one query node, with local predicate pushdown.
   [index] specialises the name test to interned-symbol compares; the
   accepted node set is identical either way (scan-vs-index oracle). *)
let node_predicate ?(index : Index.t option) data (nt : node_test) :
    int -> Graph.node_kind -> bool =
  let local_ok self =
    match nt.local with
    | None -> true
    | Some p -> p { Predicate.data; binding = [||] } ~self:(Some self)
  in
  match nt.name with
  | Some test ->
    let name_ok : int -> bool =
      match index with
      | Some idx -> name_test_sym idx test
      | None -> name_test_matches data test
    in
    fun dn kind ->
      (match kind with Graph.Complex _ -> true | Graph.Atom _ -> false)
      && name_ok dn
      && (Option.is_none nt.local || local_ok (Graph.node_value data dn))
  | None ->
    fun _ kind ->
      (match kind with
      | Graph.Atom v -> local_ok v
      | Graph.Complex _ -> false)

let deep_path : Graph.edge Gql_graph.Regpath.t =
  (* one or more containment steps; classified [Lany] on the child-edge
     plane, so frozen snapshots run it as pure int-compare hops *)
  Gql_graph.Regpath.compile_classified ~plane_hint:Index.plane_child
    ~classify:(fun () -> Gql_graph.Regpath.Lany)
    (fun () (e : Graph.edge) -> e.Graph.kind = Graph.Child)
    (Gql_regex.Syntax.plus (Gql_regex.Syntax.sym ()))

let edge_constraint (k : Ast.qedge_kind) :
    (Graph.node_kind, Graph.edge) Gql_graph.Homo.edge_constraint option =
  match k with
  | Ast.Contains { position; _ } ->
    Some
      (Gql_graph.Homo.Direct
         (fun e ->
           e.Graph.kind = Graph.Child
           &&
           match position with
           | None -> true
           | Some p -> e.Graph.ord = Some p))
  | Ast.Deep -> Some (Gql_graph.Homo.Path deep_path)
  | Ast.Attr_of name ->
    Some
      (Gql_graph.Homo.Direct
         (fun e -> e.Graph.kind = Graph.Attribute && e.Graph.name = name))
  | Ast.Ref_to name ->
    Some
      (Gql_graph.Homo.Direct
         (fun e ->
           (e.Graph.kind = Graph.Ref || e.Graph.kind = Graph.Rel)
           &&
           match name with
           | None -> true
           | Some n -> e.Graph.name = n))
  | Ast.Absent -> None

let compile ?(index : Index.t option) (data : Graph.t) (q : Ast.query) :
    compiled =
  let nq = Array.length q.q_nodes in
  (* Count positive incoming edges per node to find value-join circles,
     and incident non-absent edges to find absent-only nodes. *)
  let incoming = Array.make nq 0 in
  let positive_incident = Array.make nq 0 in
  let absent_target = Array.make nq false in
  List.iter
    (fun (e : Ast.qedge) ->
      match e.q_kind_e with
      | Ast.Absent ->
        absent_target.(e.q_dst) <- true;
        positive_incident.(e.q_src) <- positive_incident.(e.q_src) + 1
      | Ast.Contains _ | Ast.Deep | Ast.Attr_of _ | Ast.Ref_to _ ->
        incoming.(e.q_dst) <- incoming.(e.q_dst) + 1;
        positive_incident.(e.q_src) <- positive_incident.(e.q_src) + 1;
        positive_incident.(e.q_dst) <- positive_incident.(e.q_dst) + 1)
    q.q_edges;
  (* Nodes referenced by any predicate must bind. *)
  let pred_referenced = Array.make nq false in
  Array.iter
    (fun (n : Ast.qnode) ->
      match n.q_pred with
      | Some p -> List.iter (fun m -> if m < nq then pred_referenced.(m) <- true) (Ast.pred_refs p)
      | None -> ())
    q.q_nodes;
  (* A node that exists ONLY as the target of Absent edges never binds:
     it is a description of what must not exist, not a variable. *)
  let excluded qid =
    absent_target.(qid) && positive_incident.(qid) = 0
    && not pred_referenced.(qid)
  in
  (* Pattern positions: kept query nodes in order, then split circles. *)
  let qpos = Array.make nq (-1) in
  let kept = ref [] in
  for qid = nq - 1 downto 0 do
    if not (excluded qid) then kept := qid :: !kept
  done;
  List.iteri (fun pos qid -> qpos.(qid) <- pos) !kept;
  let n_kept = List.length !kept in
  let splits = ref [] in
  let n_splits = ref 0 in
  let add_split qid =
    let pid = n_kept + !n_splits in
    incr n_splits;
    splits := qid :: !splits;
    pid
  in
  let join_groups : (int, int list) Hashtbl.t = Hashtbl.create 4 in
  let seen_edge_to : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let p_edges = ref [] in
  let p_kinds = ref [] in
  let absent_checks = ref [] in
  let is_circle qid =
    match q.q_nodes.(qid).q_kind with
    | Ast.Q_content | Ast.Q_attr -> true
    | Ast.Q_elem _ -> false
  in
  List.iter
    (fun (e : Ast.qedge) ->
      match edge_constraint e.q_kind_e with
      | None ->
        (* Absent edge: record the child spec for post-filtering. *)
        absent_checks := (qpos.(e.q_src), e.q_dst) :: !absent_checks
      | Some c ->
        let dst =
          if is_circle e.q_dst && incoming.(e.q_dst) > 1 then begin
            (* Value join: first incoming edge targets the original node,
               later ones target split copies. *)
            if Hashtbl.mem seen_edge_to e.q_dst then begin
              let pid = add_split e.q_dst in
              let group =
                match Hashtbl.find_opt join_groups e.q_dst with
                | Some g -> g
                | None -> [ qpos.(e.q_dst) ]
              in
              Hashtbl.replace join_groups e.q_dst (pid :: group);
              pid
            end
            else begin
              Hashtbl.replace seen_edge_to e.q_dst 1;
              Hashtbl.replace join_groups e.q_dst [ qpos.(e.q_dst) ];
              qpos.(e.q_dst)
            end
          end
          else qpos.(e.q_dst)
        in
        p_edges := (qpos.(e.q_src), c, dst) :: !p_edges;
        p_kinds := e.q_kind_e :: !p_kinds)
    q.q_edges;
  let splits = List.rev !splits in
  let total = n_kept + List.length splits in
  let query_of_pid pid =
    if pid < n_kept then List.nth !kept pid else List.nth splits (pid - n_kept)
  in
  let node_tests = Array.map node_test q.q_nodes in
  let p_nodes =
    Array.init total (fun pid ->
        node_predicate ?index data node_tests.(query_of_pid pid))
  in
  let pat_to_query_arr = Array.init total query_of_pid in
  let value_join_groups =
    Hashtbl.fold
      (fun _ g acc -> if List.length g > 1 then g :: acc else acc)
      join_groups []
  in
  (* Ordered containment groups (pattern positions). *)
  let ordered_groups =
    let by_src = Hashtbl.create 4 in
    List.iter
      (fun (e : Ast.qedge) ->
        match e.q_kind_e with
        | Ast.Contains { ordered = true; _ } ->
          let cur =
            match Hashtbl.find_opt by_src e.q_src with Some l -> l | None -> []
          in
          Hashtbl.replace by_src e.q_src (qpos.(e.q_dst) :: cur)
        | Ast.Contains _ | Ast.Deep | Ast.Attr_of _ | Ast.Ref_to _ | Ast.Absent
          ->
          ())
      q.q_edges;
    Hashtbl.fold (fun src dsts acc -> (qpos.(src), List.rev dsts) :: acc) by_src []
  in
  let cross_preds =
    Array.to_list q.q_nodes
    |> List.mapi (fun qid (n : Ast.qnode) -> (qid, n.q_pred))
    |> List.filter_map (fun (qid, p) ->
           match p with
           | Some p when not (Predicate.is_local p) ->
             Some (qid, Predicate.compile p)
           | Some _ | None -> None)
  in
  {
    query = q;
    pattern = { Gql_graph.Homo.p_nodes; p_edges = List.rev !p_edges };
    qpos;
    pat_to_query = pat_to_query_arr;
    node_tests;
    value_join_groups;
    absent_checks =
      List.rev_map
        (fun (src, dst) -> (src, node_predicate data node_tests.(dst)))
        !absent_checks;
    ordered_groups;
    cross_preds;
    edge_kinds = List.rev !p_kinds;
  }

(* --- index-backed candidate provider --------------------------------- *)

(** Global candidates for one query node, from the index — zero-copy
    posting sets.  Supersets are sound: [Gql_graph.Homo] re-applies the
    node predicate.  Regex name tests run once per distinct label
    instead of once per node. *)
let index_candidates (idx : Index.t) (nt : node_test) : Gql_graph.Iset.t =
  match nt.name with
  | Some (Exact n) -> Index.complex_with_label idx n
  | Some Any_name -> Index.all_complex idx
  | Some (Name_re re) -> Index.complex_matching idx (Gql_regex.Chre.matches re)
  | None -> (
    match nt.qnode.q_pred with
    | Some p when Predicate.is_local p -> (
      match Predicate.equality_const p with
      | Some v -> Index.atoms_equal idx v
      | None -> Index.all_atoms idx)
    | Some _ | None -> Index.all_atoms idx)

let index_nav (idx : Index.t) (k : Ast.qedge_kind) : Gql_graph.Homo.nav option =
  match k with
  | Ast.Contains { position = None; _ } -> Some (Index.nav_child idx)
  | Ast.Contains { position = Some _; _ } ->
    (* child adjacency is a superset; the ordinal is re-checked *)
    Some (Index.nav_child_superset idx)
  | Ast.Deep -> Some (Index.nav_path idx deep_path)
  | Ast.Attr_of name -> Some (Index.nav_attr idx name)
  | Ast.Ref_to None -> Some (Index.nav_ref idx)
  | Ast.Ref_to (Some name) -> Some (Index.nav_ref_named idx name)
  | Ast.Absent -> None

(** The candidate provider routing this compiled query through [idx]. *)
let provider (idx : Index.t) (c : compiled) :
    (Graph.node_kind, Graph.edge) Gql_graph.Homo.provider =
  let navs = Array.of_list (List.map (index_nav idx) c.edge_kinds) in
  Index.provider ~navs idx ~candidates:(fun p ->
      Some (index_candidates idx c.node_tests.(c.pat_to_query.(p))))

(** Translate a pattern-space embedding into query-node space ([-1] for
    nodes that never bind). *)
let to_query_binding (c : compiled) (emb : int array) : int array =
  Array.map (fun pos -> if pos >= 0 then emb.(pos) else -1) c.qpos

(* --- post filters --------------------------------------------------- *)

let child_ord data ~parent ~child =
  (* Position of [child] among [parent]'s Child edges; None if not a
     direct child. *)
  List.find_map
    (fun (dst, (e : Graph.edge)) ->
      if dst = child && e.Graph.kind = Graph.Child then e.Graph.ord else None)
    (Graph.out data parent)

let embedding_ok (c : compiled) (data : Graph.t) (emb : int array) : bool =
  (* value joins *)
  List.for_all
    (fun group ->
      match group with
      | [] | [ _ ] -> true
      | first :: rest ->
        let v p = Graph.node_value data emb.(p) in
        let v0 = v first in
        List.for_all (fun p -> Value.equal_values v0 (v p)) rest)
    c.value_join_groups
  && (* absent children *)
  List.for_all
    (fun (src_q, matches_spec) ->
      not
        (List.exists
           (fun (child, _) -> matches_spec child (Graph.kind data child))
           (Graph.children data emb.(src_q))))
    c.absent_checks
  && (* ordered containment *)
  List.for_all
    (fun (src_q, dst_qs) ->
      let parent = emb.(src_q) in
      let ords =
        List.map (fun dq -> child_ord data ~parent ~child:emb.(dq)) dst_qs
      in
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | [ _ ] | [] -> true
      in
      List.for_all Option.is_some ords
      && increasing (List.filter_map Fun.id ords))
    c.ordered_groups
  && (* cross-node predicates *)
  let binding = to_query_binding c emb in
  List.for_all
    (fun (qid, p) ->
      let dn = binding.(qid) in
      let self = if dn >= 0 then Some (Graph.node_value data dn) else None in
      p { Predicate.data; binding } ~self)
    c.cross_preds

(** All bindings of the query in the data graph; [index] routes the
    embedding search through the frozen index instead of graph scans;
    [domains] partitions the first pattern node's candidates over that
    many domains (answers are byte-identical to sequential). *)
let run ?(index : Index.t option) ?domains (data : Graph.t) (q : Ast.query) :
    binding list =
  let c = compile ?index data q in
  let provider = Option.map (fun idx -> provider idx c) index in
  let out = ref [] in
  Gql_graph.Homo.iter_embeddings ?provider ?domains c.pattern (Graph.digraph data)
    ~emit:(fun emb ->
      if embedding_ok c data emb then out := to_query_binding c emb :: !out);
  List.rev !out

let count ?index ?domains (data : Graph.t) (q : Ast.query) : int =
  List.length (run ?index ?domains data q)
