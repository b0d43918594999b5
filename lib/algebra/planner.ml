(** The planner: pattern -> plan.

    Join order is fail-first greedy: start each connected component at
    its most selective node and always extend with the already-connected
    node that has the smallest candidate estimate.  Connectivity is
    compared lexicographically *before* the estimate, so a connected
    node can never lose to an unconnected one no matter how many
    candidates it has; components are stitched with [Cross] in the
    order the heuristic reaches them.

    When several positive edges connect the next node to the bound
    region, the cheapest one (Direct before Path) carries the [Expand]
    and the others demote to [Edge_check]s.

    Residual filters (value joins, ordered-content checks, negations
    whose endpoints are never adjacent in the traversal, cross-node
    predicates) are appended on top.  Every built plan is annotated
    with {!Plan.est} rows/cost estimates from the {!Cost} formulas,
    which EXPLAIN prints; they do not steer the join order. *)

open Gql_data
module H = Gql_graph.Homo
module Iset = Gql_graph.Iset

type residual = { r_name : string; r_pred : Graph.t -> int array -> bool }

type job = {
  pattern : (Graph.node_kind, Graph.edge) H.pattern;
  residuals : residual list;
  provider : (Graph.node_kind, Graph.edge) H.provider option;
      (** index-backed candidates; sharpens the planner's estimates and
          replaces the executor's scans *)
}

let cons_label (c : (Graph.node_kind, Graph.edge) H.edge_constraint) =
  match c with
  | H.Direct _ -> "direct"
  | H.Path _ -> "path"
  | H.Negated _ -> "negated"

let is_path (c : (Graph.node_kind, Graph.edge) H.edge_constraint) =
  match c with H.Path _ -> true | H.Direct _ | H.Negated _ -> false

(* Expanding through a Direct edge is cheaper than through a regular
   path; parallel edges between the same endpoints use this rank to
   decide which one carries the Expand. *)
let cons_rank c = if is_path c then 1 else 0

(** Candidate-count estimates.  With an index-backed provider, a node's
    count is the O(1) length of its posting set (an unfiltered sorted
    superset — close enough for join ordering, and free) and is exact.
    Nodes the provider cannot answer for are counted by scan, but each
    scan stops as soon as its count passes the best (smallest) score
    seen so far plus one: such a capped count is a *lower bound* that
    only proves the node is not the most selective, so it is returned
    with [exact = false] and must never be compared against another
    capped count as if it were real ([refine] below completes the scan
    on demand). *)
let make_estimates ?(provider : (Graph.node_kind, Graph.edge) H.provider option)
    (data : Graph.t) (pat : (Graph.node_kind, Graph.edge) H.pattern) :
    int array * bool array * (int -> unit) =
  let k = Array.length pat.H.p_nodes in
  let counts = Array.make k 0 in
  let exact = Array.make k false in
  let need_scan = Array.make k true in
  (match provider with
  | None -> ()
  | Some prov ->
    for v = 0 to k - 1 do
      match prov.H.prov_candidates v with
      | None -> ()
      | Some cands ->
        need_scan.(v) <- false;
        exact.(v) <- true;
        counts.(v) <- Iset.length cands
    done);
  let n_data = Graph.n_nodes data in
  let scan_count ~cap v =
    let c = ref 0 and n = ref 0 in
    while !c < cap && !n < n_data do
      if pat.H.p_nodes.(v) !n (Graph.kind data !n) then incr c;
      incr n
    done;
    (!c, !n >= n_data)
  in
  if Array.exists Fun.id need_scan then begin
    let best = ref max_int in
    Array.iteri (fun v c -> if not need_scan.(v) then best := min !best c) counts;
    for v = 0 to k - 1 do
      if need_scan.(v) then begin
        let cap = if !best = max_int then max_int else !best + 1 in
        let c, complete = scan_count ~cap v in
        counts.(v) <- c;
        exact.(v) <- complete;
        best := min !best c
      end
    done
  end;
  let refine v =
    if not exact.(v) then begin
      let c, _ = scan_count ~cap:max_int v in
      counts.(v) <- c;
      exact.(v) <- true
    end
  in
  (counts, exact, refine)

(** Rows/cost estimates for EXPLAIN from the {!Cost} formulas: posting
    cardinalities, fan-outs sampled from exact navs (or the graph's
    average degree), destination selectivities.  Every count read here
    is refined first: a capped scan count is good enough to order joins
    but would lie in the output. *)
let annotate ~(counts : int array) ~(refine : int -> unit)
    ~(cands_of : int -> Iset.t option) (data : Graph.t) (plan : Plan.t) : unit =
  let calib = Cost.default in
  let n_data = Graph.n_nodes data in
  let avg_degree =
    float_of_int (Graph.n_edges data) /. float_of_int (max 1 n_data)
  in
  (* Destination-predicate selectivity of binding node [v]. *)
  let sel v =
    refine v;
    if n_data = 0 then 0.0
    else Float.min 1.0 (float_of_int counts.(v) /. float_of_int n_data)
  in
  (* Mean fan-out of a nav in [dir], sampled over (up to 4 of) the
     source node's candidates.  An exact nav's posting sets are the
     symbol-partitioned adjacency, so the sample is the per-symbol
     degree summary the cost model wants. *)
  let sample_nav (nav : H.nav option) (dir : Plan.edge_dir) ~src_var =
    match nav with
    | Some n when n.H.nav_exact -> (
      let enum =
        match dir with
        | Plan.Forward -> n.H.nav_out
        | Plan.Backward -> n.H.nav_in
      in
      match enum, cands_of src_var with
      | Some f, Some cs when Iset.length cs > 0 ->
        let len = Iset.length cs in
        let samples = min 4 len in
        let tot = ref 0 in
        for s = 0 to samples - 1 do
          tot := !tot + Iset.length (f (Iset.get cs (s * len / samples)))
        done;
        Some (float_of_int !tot /. float_of_int samples)
      | _ -> None)
    | Some _ | None -> None
  in
  let fanout nav dir ~src_var ~cons =
    match sample_nav nav dir ~src_var, cons with
    | Some f, _ -> f
    | None, H.Path rp ->
      Cost.path_fanout calib ~n_nodes:n_data ~avg_degree
        ~depth_bound:(Gql_graph.Regpath.depth_bound rp)
    | None, (H.Direct _ | H.Negated _) -> Float.max 1.0 avg_degree
  in
  (* Expand estimate with a totality cap on direct edges: R sources
     cannot enumerate more than max(R, |edges|) neighbours, whatever the
     sampled fan-out claims — the sample is degree-biased on skewed
     graphs (evenly-spaced candidates can all be hubs), and without the
     cap a forward expansion over a skewed symbol looks arbitrarily
     worse than reality.  Regular paths may legitimately revisit, so
     they keep the raw sample. *)
  let expand_est ~path ~(input : Plan.est) ~fanout ~dst_sel =
    let fanout =
      if path then fanout
      else
        let cap =
          Float.max 1.0
            (float_of_int (Graph.n_edges data)
            /. Float.max 1.0 input.Plan.est_rows)
        in
        Float.min fanout cap
    in
    Cost.expand calib ~path ~input ~fanout ~dst_sel
  in
  let rec go (p : Plan.t) : Plan.est =
    let e =
      match p with
      | Plan.Scan { var; _ } ->
        refine var;
        Cost.scan calib ~indexed:(cands_of var <> None) ~n_nodes:n_data
          ~card:counts.(var)
      | Plan.Expand { input; src; dir; dst; cons; nav; _ } ->
        let input = go input in
        let fanout = fanout nav dir ~src_var:src ~cons in
        expand_est ~path:(is_path cons) ~input ~fanout ~dst_sel:(sel dst)
      | Plan.Edge_check { input; cons; _ } ->
        Cost.edge_check calib ~path:(is_path cons) ~input:(go input)
      | Plan.Cross { left; right; _ } ->
        Cost.cross calib ~left:(go left) ~right:(go right)
      | Plan.Filter { input; _ } -> Cost.filter calib ~input:(go input)
    in
    Plan.set_est p e;
    e
  in
  ignore (go plan)

let build (data : Graph.t) (job : job) : Plan.t =
  let pat = job.pattern in
  let k = Array.length pat.H.p_nodes in
  if k = 0 then invalid_arg "empty pattern";
  let counts, exact, refine = make_estimates ?provider:job.provider data pat in
  let cands_of v =
    match job.provider with
    | Some prov -> prov.H.prov_candidates v
    | None -> None
  in
  (* The provider's per-edge navigation (p_edges order) rides along on
     Expand/Edge_check so the executor can enumerate and test through
     the index. *)
  let nav_of =
    match job.provider with
    | Some prov -> prov.H.prov_nav
    | None -> fun _ -> None
  in
  (* Positive adjacency with constraints, keyed by p_edges position. *)
  let indexed_edges = List.mapi (fun i e -> (i, e)) pat.H.p_edges in
  let pos_edges =
    List.filter (fun (_, (_, c, _)) -> not (match c with H.Negated _ -> true | _ -> false))
      indexed_edges
  in
  let neg_edges =
    List.filter (fun (_, (_, c, _)) -> match c with H.Negated _ -> true | _ -> false)
      indexed_edges
  in
  let pos_arr = Array.of_list pos_edges in
  let bound = Array.make k false in
  let used = Array.make (Array.length pos_arr) false in
  (* Cheapest unused edge connecting the bound region to [v]: Direct
     preferred over Path, ties by declaration order; the others become
     checks once both endpoints are bound. *)
  let choose_edge v =
    let best = ref None in
    Array.iteri
      (fun i (_, (a, c, b)) ->
        if
          (not used.(i))
          && (not (a = v && b = v))
          && ((bound.(a) && b = v) || (bound.(b) && a = v))
        then
          match !best with
          | Some (_, r) when r <= cons_rank c -> ()
          | _ -> best := Some (i, cons_rank c))
      pos_arr;
    Option.map fst !best
  in
  (* Next choice: (connectivity, estimate) compared lexicographically —
     a connected node always beats an unconnected one, however large
     its candidate count.  Capped counts are refined before they can
     decide a winner. *)
  let pick_min cands =
    match cands with
    | [] -> None
    | [ v ] -> Some v (* nothing to order against: skip refinement *)
    | _ ->
      let rec go () =
        let best =
          List.fold_left
            (fun acc v ->
              match acc with
              | Some b when counts.(b) <= counts.(v) -> acc
              | _ -> Some v)
            None cands
        in
        match best with
        | Some b when not exact.(b) ->
          (* a capped count is only a lower bound; it cannot win a
             comparison until the scan completes *)
          refine b;
          go ()
        | other -> other
      in
      go ()
  in
  let next_pick () =
    let connected v =
      Array.exists
        (fun (_, (a, _, b)) -> (bound.(a) && b = v) || (bound.(b) && a = v))
        pos_arr
    in
    let unbound conn =
      List.filter
        (fun v -> (not bound.(v)) && connected v = conn)
        (List.init k Fun.id)
    in
    match pick_min (unbound true) with
    | Some v -> Some v
    | None -> pick_min (unbound false)
  in
  let scan v = Plan.Scan { var = v; label = Printf.sprintf "node%d" v; est = None } in
  (* Edges whose endpoints are now both bound become checks right here. *)
  let emit_checks plan =
    let acc = ref plan in
    Array.iteri
      (fun i (ei, (a, c, b)) ->
        if (not used.(i)) && bound.(a) && bound.(b) then begin
          used.(i) <- true;
          acc :=
            Plan.Edge_check
              { input = !acc; src = a; dst = b; cons = c; nav = nav_of ei;
                label = cons_label c; est = None }
        end)
      pos_arr;
    !acc
  in
  (* Bind [v] on top of [plan]: Expand along the chosen edge, or Cross
     in a fresh Scan when nothing connects (a new component). *)
  let bind plan v =
    let plan =
      match choose_edge v with
      | Some i ->
        used.(i) <- true;
        let ei, (a, c, b) = pos_arr.(i) in
        let src, dir =
          if bound.(a) && b = v then (a, Plan.Forward) else (b, Plan.Backward)
        in
        Plan.Expand
          { input = plan; src; dst = v; dir; cons = c; nav = nav_of ei;
            label = cons_label c; est = None }
      | None -> Plan.Cross { left = plan; right = scan v; est = None }
    in
    bound.(v) <- true;
    emit_checks plan
  in
  let rec loop plan =
    match next_pick () with
    | None -> plan
    | Some v -> loop (bind plan v)
  in
  let plan =
    match next_pick () with
    | None -> invalid_arg "empty pattern"
    | Some v0 ->
      bound.(v0) <- true;
      loop (emit_checks (scan v0))
  in
  (* Negated edges as filters. *)
  let plan =
    List.fold_left
      (fun plan (ei, (a, c, b)) ->
        Plan.Edge_check
          { input = plan; src = a; dst = b; cons = c; nav = nav_of ei;
            label = "negated"; est = None })
      plan neg_edges
  in
  (* Residual filters. *)
  let plan =
    List.fold_left
      (fun plan r ->
        Plan.Filter { input = plan; name = r.r_name; pred = r.r_pred; est = None })
      plan job.residuals
  in
  annotate ~counts ~refine ~cands_of data plan;
  plan

(** Job construction from a compiled XML-GL query: the pattern plus its
    post-filters packaged as residuals; [index] attaches the frozen
    index's candidate provider. *)
let job_of_xmlgl ?(index : Index.t option) (c : Gql_xmlgl.Matching.compiled) :
    job =
  {
    pattern = c.Gql_xmlgl.Matching.pattern;
    residuals =
      [
        {
          r_name = "xmlgl-residuals";
          r_pred = (fun data emb -> Gql_xmlgl.Matching.embedding_ok c data emb);
        };
      ];
    provider = Option.map (fun idx -> Gql_xmlgl.Matching.provider idx c) index;
  }

(** Job construction from a WG-Log rule's query part, for the algebra
    EXPLAIN route: the compiled pattern (label tests specialised to
    interned symbols when an index is given), the evaluator's provider,
    and its negation checks packaged as residuals. *)
let job_of_wglog ?(index : Index.t option) (r : Gql_wglog.Ast.rule) : job =
  let cq = Gql_wglog.Eval.compile_query r in
  let pattern =
    match index with
    | Some idx -> Gql_wglog.Eval.specialised_pattern idx cq
    | None -> cq.Gql_wglog.Eval.pattern
  in
  let n_rule = Array.length r.Gql_wglog.Ast.nodes in
  let residuals =
    (if cq.Gql_wglog.Eval.neg_checks = [] then []
     else
       [
         {
           r_name = "wglog-negations";
           r_pred =
             (fun data emb ->
               let full = Array.make n_rule (-1) in
               Array.iteri
                 (fun pos qid -> full.(qid) <- emb.(pos))
                 cq.Gql_wglog.Eval.query_ids;
               Gql_wglog.Eval.neg_checks_ok ?index data cq full);
         };
       ])
    @
    if cq.Gql_wglog.Eval.global_negs = [] then []
    else
      [
        {
          r_name = "wglog-global-negations";
          r_pred = (fun data _ -> Gql_wglog.Eval.global_negs_ok ?index data cq);
        };
      ]
  in
  {
    pattern;
    residuals;
    provider = Option.map (fun idx -> Gql_wglog.Eval.provider idx cq) index;
  }
