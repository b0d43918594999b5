(** Plan execution.

    Bindings are arrays indexed by pattern variable ([-1] = unbound).
    Operators stream lists; [Expand] is the workhorse: follow the edge
    constraint from the bound endpoint and test the destination's node
    predicate. *)

open Gql_data

type binding = int array

(* [nav_links] is exact by contract, so it answers the bound-pair test
   for any constraint kind without touching adjacency. *)
let edge_ok ?(nav : Gql_graph.Homo.nav option)
    (c : (Graph.node_kind, Graph.edge) Gql_graph.Homo.edge_constraint)
    (data : Graph.t) ~src ~dst =
  match nav with
  | Some { Gql_graph.Homo.nav_links = Some links; _ } -> (
    match c with
    | Gql_graph.Homo.Direct _ | Gql_graph.Homo.Path _ -> links src dst
    | Gql_graph.Homo.Negated _ -> not (links src dst))
  | Some _ | None -> (
    match c with
    | Gql_graph.Homo.Direct p ->
      List.exists (fun (d, l) -> d = dst && p l) (Graph.out data src)
    | Gql_graph.Homo.Path rp -> Gql_graph.Regpath.connects rp (Graph.digraph data) ~src ~dst
    | Gql_graph.Homo.Negated p ->
      not (List.exists (fun (d, l) -> d = dst && p l) (Graph.out data src)))

(* Forward expansion candidates from [src].  An *exact* nav replaces the
   adjacency filter with a posting-set lookup; supersets are refused
   here because [Expand] does not re-check the edge constraint. *)
let expand_candidates ?(nav : Gql_graph.Homo.nav option)
    (c : (Graph.node_kind, Graph.edge) Gql_graph.Homo.edge_constraint)
    (data : Graph.t) ~(dir : Plan.edge_dir) (from : int) : int list =
  let nav_enum =
    match nav with
    | Some n when n.Gql_graph.Homo.nav_exact -> (
      match dir with
      | Plan.Forward -> n.Gql_graph.Homo.nav_out
      | Plan.Backward -> n.Gql_graph.Homo.nav_in)
    | Some _ | None -> None
  in
  match nav_enum with
  | Some enum -> Gql_graph.Iset.to_list (enum from)
  | None -> (
    match c, dir with
    | Gql_graph.Homo.Direct p, Plan.Forward ->
      List.filter_map (fun (d, l) -> if p l then Some d else None) (Graph.out data from)
    | Gql_graph.Homo.Direct p, Plan.Backward ->
      List.filter_map (fun (s, l) -> if p l then Some s else None) (Graph.inn data from)
    | Gql_graph.Homo.Path rp, Plan.Forward ->
      Gql_graph.Regpath.reachable rp (Graph.digraph data) from
    | Gql_graph.Homo.Path rp, Plan.Backward ->
      (* Reverse regular path: the engine's reverse automaton walks
         predecessor edges from [from], ascending — the same set (and
         order) the old whole-graph connects scan produced, without
         touching unrelated nodes. *)
      Gql_graph.Iset.to_list (Gql_graph.Regpath.reachable_rev_set rp (Graph.digraph data) from)
    | Gql_graph.Homo.Negated _, _ -> invalid_arg "cannot expand a negated edge")

let run ?(provider : (Graph.node_kind, Graph.edge) Gql_graph.Homo.provider option)
    ?domains (data : Graph.t)
    (pattern : (Graph.node_kind, Graph.edge) Gql_graph.Homo.pattern)
    (plan : Plan.t) : binding list =
  let domains =
    match domains with
    | Some d -> max 1 d
    | None -> Gql_graph.Par.default_domains ()
  in
  let k = Array.length pattern.Gql_graph.Homo.p_nodes in
  let node_pred v n = pattern.Gql_graph.Homo.p_nodes.(v) n (Graph.kind data n) in
  (* The scan and expand leaves fan out over domains ({!Gql_graph.Par}):
     chunked over the candidate range / input bindings, merged back in
     order, so plan output is byte-identical to sequential execution.
     Each leaf passes a work estimate so Par's cutoff keeps small
     operators sequential: a scan costs one predicate test per
     candidate, an expansion roughly an adjacency-filter per binding. *)
  let rec eval (p : Plan.t) : binding list =
    match p with
    | Plan.Scan { var; _ } -> (
      let indexed =
        match provider with
        | Some prov -> prov.Gql_graph.Homo.prov_candidates var
        | None -> None
      in
      match indexed with
      | Some cands ->
        (* index candidates are sorted ascending, like the scan below *)
        Gql_graph.Par.map_chunks
          ~cost:(Gql_graph.Iset.length cands)
          ~domains ~n:(Gql_graph.Iset.length cands)
          (fun lo hi ->
            let out = ref [] in
            for i = hi - 1 downto lo do
              let n = Gql_graph.Iset.get cands i in
              if node_pred var n then begin
                let b = Array.make k (-1) in
                b.(var) <- n;
                out := b :: !out
              end
            done;
            !out)
        |> List.concat
      | None ->
        Gql_graph.Par.map_chunks ~cost:(Graph.n_nodes data) ~domains
          ~n:(Graph.n_nodes data) (fun lo hi ->
            let out = ref [] in
            for n = hi - 1 downto lo do
              if node_pred var n then begin
                let b = Array.make k (-1) in
                b.(var) <- n;
                out := b :: !out
              end
            done;
            !out)
        |> List.concat)
    | Plan.Expand { input; src; dst; dir; cons; nav; _ } ->
      let bindings = eval input in
      (* Regular-path expansion with no exact nav would run one product
         search per *binding*; resolve the distinct source frontier in
         one batched sweep up front (single warm scratch, each source
         searched once) and serve the per-binding expansion by lookup.
         The table is built before the fan-out, so chunks only read. *)
      let path_table =
        match cons with
        | Gql_graph.Homo.Path rp
          when (match nav with
               | Some n -> not n.Gql_graph.Homo.nav_exact
               | None -> true) ->
          let seen = Hashtbl.create 64 in
          List.iter
            (fun b ->
              let f = b.(src) in
              if f >= 0 && not (Hashtbl.mem seen f) then Hashtbl.replace seen f ())
            bindings;
          let srcs = Array.of_seq (Hashtbl.to_seq_keys seen) in
          let sets =
            match dir with
            | Plan.Forward -> Gql_graph.Regpath.reachable_batch rp (Graph.digraph data) srcs
            | Plan.Backward ->
              Gql_graph.Regpath.reachable_rev_batch rp (Graph.digraph data) srcs
          in
          let tbl = Hashtbl.create (Array.length srcs) in
          Array.iteri
            (fun i s -> Hashtbl.replace tbl s (Gql_graph.Iset.to_list sets.(i)))
            srcs;
          Some tbl
        | _ -> None
      in
      Gql_graph.Par.concat_map_chunks
        ~cost:(List.length bindings * 8)
        ~domains
        (fun b ->
          let from = b.(src) in
          if from < 0 then []
          else
            (match path_table with
            | Some tbl -> Hashtbl.find tbl from
            | None -> expand_candidates ?nav cons data ~dir from)
            |> List.filter_map (fun cand ->
                   if node_pred dst cand then begin
                     let b' = Array.copy b in
                     b'.(dst) <- cand;
                     Some b'
                   end
                   else None))
        bindings
    | Plan.Edge_check { input; src; dst; cons; nav; _ } ->
      List.filter
        (fun b -> edge_ok ?nav cons data ~src:b.(src) ~dst:b.(dst))
        (eval input)
    | Plan.Cross { left; right; _ } ->
      let lefts = eval left and rights = eval right in
      List.concat_map
        (fun l ->
          List.map
            (fun r ->
              let merged = Array.copy l in
              Array.iteri (fun i v -> if v >= 0 then merged.(i) <- v) r;
              merged)
            rights)
        lefts
    | Plan.Filter { input; pred; _ } ->
      List.filter (fun b -> pred data b) (eval input)
  in
  eval plan

(** End-to-end: compile an XML-GL query, plan it, execute, and return
    bindings restricted to the query's own nodes (the same shape
    [Gql_xmlgl.Matching.run] returns, so results are comparable). *)
let run_xmlgl ?index ?domains (data : Graph.t)
    (q : Gql_xmlgl.Ast.query) : int array list =
  let compiled = Gql_xmlgl.Matching.compile ?index data q in
  let job = Planner.job_of_xmlgl ?index compiled in
  let plan = Planner.build data job in
  List.map
    (Gql_xmlgl.Matching.to_query_binding compiled)
    (run ?provider:job.Planner.provider ?domains data
       compiled.Gql_xmlgl.Matching.pattern plan)

(** The plan text for an XML-GL query — EXPLAIN, annotated with the
    cost model's row/cost estimates. *)
let explain_xmlgl ?index (data : Graph.t)
    (q : Gql_xmlgl.Ast.query) : string =
  let compiled = Gql_xmlgl.Matching.compile ?index data q in
  let job = Planner.job_of_xmlgl ?index compiled in
  Plan.to_string (Planner.build data job)

(** The plan text for a WG-Log rule's query part, via the same algebra
    route (the fixpoint evaluator itself stays non-algebraic; this is
    the EXPLAIN view of how one rule's pattern would be joined). *)
let explain_wglog ?index (data : Graph.t)
    (r : Gql_wglog.Ast.rule) : string =
  let job = Planner.job_of_wglog ?index r in
  if Array.length job.Planner.pattern.Gql_graph.Homo.p_nodes = 0 then
    "(empty query part)\n"
  else Plan.to_string (Planner.build data job)
