(* Tests for the frozen graph layer: CSR freeze round-trips against the
   mutable Digraph it snapshots, and the index-backed embedding search
   returns exactly the bindings of the scan-based one — same sets, same
   order — across both engines' query corpora, including negation,
   regular paths and pre-bound seeds. *)

open Gql_graph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- CSR freeze round-trip ------------------------------------------- *)

(* A random multigraph with string payloads and labels. *)
let random_digraph seed =
  let st = Random.State.make [| seed |] in
  let n = 1 + Random.State.int st 40 in
  let g = Digraph.create ~dummy:"" in
  for i = 0 to n - 1 do
    ignore (Digraph.add_node g (Printf.sprintf "n%d" i))
  done;
  let m = Random.State.int st (4 * n) in
  for _ = 1 to m do
    let src = Random.State.int st n and dst = Random.State.int st n in
    Digraph.add_edge g ~src ~dst (Printf.sprintf "e%d" (Random.State.int st 5))
  done;
  g

let csr_matches_digraph g =
  let c = Csr.freeze g in
  Csr.n_nodes c = Digraph.n_nodes g
  && Csr.n_edges c = Digraph.n_edges g
  && List.for_all
       (fun i ->
         Csr.payload c i = Digraph.payload g i
         && Csr.out_degree c i = Digraph.out_degree g i
         && Csr.in_degree c i = Digraph.in_degree g i
         && Csr.succ c i = Digraph.succ g i
         && Csr.pred c i = Digraph.pred g i)
       (List.init (Digraph.n_nodes g) Fun.id)

let prop_freeze_roundtrip =
  QCheck.Test.make ~name:"freeze round-trips random digraphs" ~count:100
    QCheck.(make Gen.(int_range 0 10_000))
    (fun seed -> csr_matches_digraph (random_digraph seed))

let test_freeze_empty () =
  let g = Digraph.create ~dummy:"" in
  let c = Csr.freeze g in
  check_int "no nodes" 0 (Csr.n_nodes c);
  check_int "no edges" 0 (Csr.n_edges c)

let test_freeze_edgeless () =
  let g = Digraph.create ~dummy:"" in
  ignore (Digraph.add_node g "a");
  ignore (Digraph.add_node g "b");
  let c = Csr.freeze g in
  check_int "nodes" 2 (Csr.n_nodes c);
  check_int "degree" 0 (Csr.degree c 0);
  check "has_edge" false (Csr.has_edge c 0 1)

let test_freeze_workload () =
  (* real data graphs, including parallel edges and attribute slots *)
  let graphs =
    [
      (Gql_data.Graph.digraph (Gql_workload.Gen.restaurants 30));
      (Gql_data.Graph.digraph (Gql_workload.Gen.hyperdocs ~fanout:3 25));
      (Gql_data.Graph.digraph (Gql_workload.Gen.to_graph (Gql_workload.Gen.random_tree 120)));
    ]
  in
  List.iter
    (fun g ->
      let c = Csr.freeze g in
      check "counts" true
        (Csr.n_nodes c = Digraph.n_nodes g && Csr.n_edges c = Digraph.n_edges g);
      for i = 0 to Digraph.n_nodes g - 1 do
        check "succ" true (Csr.succ c i = Digraph.succ g i);
        check "pred" true (Csr.pred c i = Digraph.pred g i);
        check_int "degree" (Digraph.out_degree g i + Digraph.in_degree g i)
          (Csr.degree c i)
      done)
    graphs

let test_freeze_is_snapshot () =
  let g = Digraph.create ~dummy:"" in
  let a = Digraph.add_node g "a" and b = Digraph.add_node g "b" in
  Digraph.add_edge g ~src:a ~dst:b "x";
  let c = Csr.freeze g in
  Digraph.add_edge g ~src:b ~dst:a "y";
  check_int "frozen edge count" 1 (Csr.n_edges c);
  check_int "live edge count" 2 (Digraph.n_edges g)

(* --- indexed vs scan: XML-GL corpus ---------------------------------- *)

let doc_for = function
  | `Bibliography -> Gql_workload.Gen.bibliography 25
  | `Greengrocer -> Gql_workload.Gen.greengrocer 25
  | `People | `Restaurants | `Hyperdocs -> Gql_workload.Gen.people 25

let test_xmlgl_corpus_equivalence () =
  List.iter
    (fun (e : Gql_workload.Queries.entry) ->
      match e.kind with
      | `Wglog _ -> ()
      | `Xmlgl p ->
        let db = Gql_core.Gql.of_document (doc_for e.workload) in
        let data = db.Gql_core.Gql.graph in
        let idx = Gql_data.Index.build data in
        List.iter
          (fun (r : Gql_xmlgl.Ast.rule) ->
            let q = r.Gql_xmlgl.Ast.query in
            let scan = Gql_xmlgl.Matching.run data q in
            let indexed = Gql_xmlgl.Matching.run ~index:idx data q in
            check (e.name ^ " identical bindings, identical order") true
              (scan = indexed);
            (* the algebra executor, with and without the index *)
            let norm bs = List.sort compare (List.map Array.to_list bs) in
            check (e.name ^ " algebra agrees") true
              (norm (Gql_algebra.Exec.run_xmlgl data q)
              = norm (Gql_algebra.Exec.run_xmlgl ~index:idx data q)))
          (Lazy.force p).Gql_xmlgl.Ast.rules)
    Gql_workload.Queries.suite

let prop_xmlgl_random_docs =
  (* indexed = scan on random documents too, not just the fixed corpus *)
  QCheck.Test.make ~name:"indexed = scan on random documents" ~count:30
    QCheck.(make Gen.(int_range 1 500))
    (fun seed ->
      let db =
        Gql_core.Gql.of_document (Gql_workload.Gen.random_tree ~seed 100)
      in
      let data = db.Gql_core.Gql.graph in
      let idx = Gql_data.Index.build data in
      let src =
        {|xmlgl
rule
query
  node $a elem item
  node $b elem a
  deep $a $b
construct
  node c copy $b
  root c
end
|}
      in
      let p = Gql_core.Gql.parse_xmlgl src in
      let q = (List.hd p.Gql_xmlgl.Ast.rules).Gql_xmlgl.Ast.query in
      Gql_xmlgl.Matching.run data q
      = Gql_xmlgl.Matching.run ~index:idx data q)

(* --- indexed vs scan: WG-Log ----------------------------------------- *)

let wglog_graph_for = function
  | `Restaurants -> Gql_workload.Gen.restaurants 30
  | _ -> Gql_workload.Gen.hyperdocs ~fanout:3 25

let test_wglog_corpus_equivalence () =
  List.iter
    (fun (e : Gql_workload.Queries.entry) ->
      match e.kind with
      | `Xmlgl _ -> ()
      | `Wglog p ->
        let data = wglog_graph_for e.workload in
        let idx = Gql_data.Index.build data in
        List.iter
          (fun r ->
            let cq = Gql_wglog.Eval.compile_query r in
            let scan = Gql_wglog.Eval.query_embeddings data r cq in
            let indexed =
              Gql_wglog.Eval.query_embeddings ~index:idx data r cq
            in
            check (e.name ^ " identical embeddings") true (scan = indexed))
          (Lazy.force p).Gql_wglog.Ast.rules)
    Gql_workload.Queries.suite

let test_wglog_fixpoint_equivalence () =
  (* full programs: indexed and unindexed runs derive the same graph *)
  List.iter
    (fun (e : Gql_workload.Queries.entry) ->
      match e.kind with
      | `Xmlgl _ -> ()
      | `Wglog p ->
        let run use_index =
          let data = wglog_graph_for e.workload in
          let stats =
            Gql_wglog.Eval.run ~use_index data (Lazy.force p)
          in
          ( stats.Gql_wglog.Eval.embeddings_found,
            stats.Gql_wglog.Eval.nodes_added,
            stats.Gql_wglog.Eval.edges_added,
            Gql_data.Graph.n_nodes data,
            Gql_data.Graph.n_edges data )
        in
        check (e.name ^ " fixpoint agrees") true (run true = run false))
    Gql_workload.Queries.suite

(* --- handcrafted rules: negation, paths, pre-bound seeds -------------- *)

let offers_rule () =
  (* a:Restaurant -offers-> m:Menu *)
  let open Gql_wglog.Ast.Build in
  let b = create () in
  let a = entity b "Restaurant" in
  let m = entity b "Menu" in
  edge b ~label:"offers" a m;
  finish b

let no_menu_rule () =
  (* a:Restaurant with no offers edge (free negated endpoint) *)
  let open Gql_wglog.Ast.Build in
  let b = create () in
  let a = entity b "Restaurant" in
  let c = entity b "City" in
  let m = entity b "Menu" in
  edge b ~label:"located-in" a c;
  negated b ~label:"offers" a m;
  finish b

let bound_negation_rule () =
  (* a -index-> x, a -link-> y, and x -link-> y must NOT exist: a
     negated edge whose endpoints both bind *)
  let open Gql_wglog.Ast.Build in
  let b = create () in
  let a = entity b "Document" in
  let x = entity b "Document" in
  let y = entity b "Document" in
  edge b ~label:"index" a x;
  edge b ~label:"link" a y;
  negated b ~label:"link" x y;
  finish b

let path_rule () =
  (* a =index+=> d: regular path *)
  let open Gql_wglog.Ast.Build in
  let b = create () in
  let a = entity b "Document" in
  let d = entity b "Document" in
  regex b Gql_regex.Syntax.(plus (sym "index")) a d;
  finish b

let equivalent ?pre_bound data r =
  let idx = Gql_data.Index.build data in
  let cq = Gql_wglog.Eval.compile_query r in
  Gql_wglog.Eval.query_embeddings ?pre_bound data r cq
  = Gql_wglog.Eval.query_embeddings ?pre_bound ~index:idx data r cq

let test_handcrafted_equivalence () =
  let rest = Gql_workload.Gen.restaurants 40 in
  let web = Gql_workload.Gen.hyperdocs ~fanout:3 ~link_factor:2 30 in
  check "plain edges" true (equivalent rest (offers_rule ()));
  check "free negation" true (equivalent rest (no_menu_rule ()));
  check "bound negation" true (equivalent web (bound_negation_rule ()));
  check "regular path" true (equivalent web (path_rule ()))

let test_pre_bound_equivalence () =
  let rest = Gql_workload.Gen.restaurants 40 in
  let r = offers_rule () in
  let cq = Gql_wglog.Eval.compile_query r in
  (* seed pattern position 0 (the Restaurant) with each candidate *)
  let some_restaurants =
    List.filteri
      (fun i _ -> i < 5)
      (List.filter
         (fun n ->
           match Gql_data.Graph.kind rest n with
           | Gql_data.Graph.Complex "Restaurant" -> true
           | _ -> false)
         (List.init (Gql_data.Graph.n_nodes rest) Fun.id))
  in
  check "has seeds" true (some_restaurants <> []);
  List.iter
    (fun seed ->
      check "seeded search agrees" true
        (equivalent ~pre_bound:[ (0, seed) ] rest r);
      ignore cq)
    some_restaurants

let test_sanity_nonempty () =
  (* guard against vacuous equivalence: these rules really do match *)
  let rest = Gql_workload.Gen.restaurants 40 in
  let web = Gql_workload.Gen.hyperdocs ~fanout:3 ~link_factor:2 30 in
  let idx_r = Gql_data.Index.build rest in
  let idx_w = Gql_data.Index.build web in
  let count idx data r =
    List.length (Gql_wglog.Eval.goal ~index:idx data r)
  in
  check "offers matches" true (count idx_r rest (offers_rule ()) > 0);
  check "no-menu matches" true (count idx_r rest (no_menu_rule ()) > 0);
  check "path matches" true (count idx_w web (path_rule ()) > 0)

(* --- the graph's frozen-index slot --------------------------------------- *)

let test_cache_refresh () =
  let open Gql_data in
  let data = Gql_workload.Gen.restaurants 10 in
  let i1 = Index.refresh data in
  let i2 = Index.refresh data in
  check "kept in the slot while unchanged" true (i1 == i2);
  check "build fills the slot" true
    (let i = Index.build data in
     i == Index.refresh data);
  let n = Graph.add_complex data "Restaurant" in
  ignore n;
  let i3 = Index.refresh data in
  check "rebuilt after growth" true (not (i1 == i3));
  check_int "sees the new node" (Graph.n_nodes data) (Index.n_nodes i3);
  check "rebuild replaces the slot" true (i3 == Index.refresh data)

(* A copy carries its parent's index: the index describes content, and a
   fresh copy has its parent's content.  The first link on the copy
   makes it stale for the copy only. *)
let test_copy_shares_index () =
  let open Gql_data in
  let data = Gql_workload.Gen.restaurants 10 in
  let parent = Index.refresh data in
  let fork = Graph.copy data in
  check "copy reuses the parent's index" true (Index.refresh fork == parent);
  check "the index still names the parent graph" true
    (Index.graph (Index.refresh fork) == data);
  let r = List.hd (Graph.nodes_labelled fork "Restaurant") in
  Graph.link fork ~src:r ~dst:r (Graph.rel_edge "likes");
  let forked = Index.refresh fork in
  check "one link on the copy rebuilds" true (not (forked == parent));
  check_int "rebuilt index sees the link" (Graph.n_edges fork)
    (Index.n_edges forked);
  check "the parent keeps its own index" true (Index.refresh data == parent);
  check_int "parent index unchanged" (Graph.n_edges data) (Index.n_edges parent)

(* Distinct regular-path automata each add memo entries keyed by a fresh
   uid; the memo is dropped whole at its budget and answers stay put. *)
let test_path_memo_bounded () =
  let open Gql_data in
  let db = Gql_core.Gql.of_document (Gql_workload.Gen.bibliography 300) in
  let q = Gql_workload.Queries.m2_src in
  let first = fst (Gql_core.Gql.run_match_text db q) in
  let idx = Gql_core.Gql.index db in
  let peak = ref 0 and resets = ref 0 and last = ref 0 in
  for _ = 1 to 60 do
    let body = fst (Gql_core.Gql.run_match_text db q) in
    check "same answer" true (body = first);
    let ints = Index.path_memo_ints idx in
    if ints < !last then incr resets;
    last := ints;
    peak := max !peak ints
  done;
  check "memo was reset" true (!resets > 0);
  check "memo within budget" true (!peak <= Index.path_budget idx)

(* --- interned symbol plane ------------------------------------------- *)

(* Index.build writes each node's interned label id onto the frozen CSR
   ([Csr.node_sym]); the plane must round-trip through the snapshot's
   symtab, atoms must stay unlabelled (-1), and ids are snapshot-local:
   a different snapshot may assign different ids to the same strings. *)
let test_symbol_plane () =
  let open Gql_data in
  let data = Graph.create () in
  let r = Graph.add_complex data "Restaurant" in
  let m = Graph.add_complex data "Menu" in
  let v = Graph.add_atom data (Value.string "bistro") in
  Graph.link data ~src:r ~dst:m (Graph.rel_edge "offers");
  Graph.link data ~src:r ~dst:v (Graph.attr_edge "name");
  let idx = Index.build data in
  let st = Index.symtab idx in
  check "labels interned" true
    (Symtab.name st (Index.node_sym idx r) = "Restaurant"
    && Symtab.name st (Index.node_sym idx m) = "Menu");
  check_int "atom has no label sym" (-1) (Index.node_sym idx v);
  check_int "label_sym round-trip" (Index.node_sym idx r)
    (Index.label_sym idx "Restaurant");
  check_int "missing label" (-1) (Index.label_sym idx "Pub");
  check "sym bucket = label bucket" true
    (Index.complex_with_sym idx (Index.label_sym idx "Menu")
    = Index.complex_with_label idx "Menu");
  (* snapshot-local: a second snapshot interning in a different order
     can give "Menu" a different id, and each index only answers for
     its own ids *)
  let data2 = Graph.create () in
  let m2 = Graph.add_complex data2 "Menu" in
  let idx2 = Index.build data2 in
  check "own snapshot resolves" true
    (Gql_graph.Iset.to_list (Index.complex_with_label idx2 "Menu") = [ m2 ])

let () =
  Alcotest.run "csr"
    [
      ( "freeze",
        [
          QCheck_alcotest.to_alcotest prop_freeze_roundtrip;
          Alcotest.test_case "empty graph" `Quick test_freeze_empty;
          Alcotest.test_case "edgeless graph" `Quick test_freeze_edgeless;
          Alcotest.test_case "workload graphs" `Quick test_freeze_workload;
          Alcotest.test_case "snapshot semantics" `Quick test_freeze_is_snapshot;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "xmlgl corpus" `Quick test_xmlgl_corpus_equivalence;
          QCheck_alcotest.to_alcotest prop_xmlgl_random_docs;
          Alcotest.test_case "wglog corpus" `Quick test_wglog_corpus_equivalence;
          Alcotest.test_case "wglog fixpoints" `Quick test_wglog_fixpoint_equivalence;
          Alcotest.test_case "handcrafted rules" `Quick test_handcrafted_equivalence;
          Alcotest.test_case "pre-bound seeds" `Quick test_pre_bound_equivalence;
          Alcotest.test_case "matches are non-empty" `Quick test_sanity_nonempty;
        ] );
      ( "symbols",
        [ Alcotest.test_case "interned label plane" `Quick test_symbol_plane ] );
      ( "cache",
        [
          Alcotest.test_case "refresh" `Quick test_cache_refresh;
          Alcotest.test_case "copy shares the index" `Quick test_copy_shares_index;
          Alcotest.test_case "path memo bounded" `Quick test_path_memo_bounded;
        ] );
    ]
