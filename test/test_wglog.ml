(* Tests for Gql_wglog: schemas, rule checks, embedding search, the
   deductive fixpoint (naive vs semi-naive, Skolem dedup, aggregation),
   and the paper's three figure rules. *)

open Gql_wglog
open Gql_data

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- schema ----------------------------------------------------------- *)

let test_schema_check () =
  Alcotest.(check (list string)) "restaurant schema consistent" []
    (Schema.check Schema.restaurant_schema);
  let broken =
    { Schema.entities = [ "A" ];
      slots = [ ("B", "s", "string") ];
      edge_types =
        [ { Schema.et_name = "r"; et_src = "A"; et_dst = "Z"; et_mult = Schema.M_one_one } ] }
  in
  check_int "two problems" 2 (List.length (Schema.check broken))

let test_schema_validate_data () =
  let g = Gql_workload.Gen.restaurants 5 in
  Alcotest.(check (list string)) "generated restaurants conform" []
    (Schema.validate Schema.restaurant_schema g);
  (* an undeclared entity type *)
  let bad = Graph.create () in
  let x = Graph.add_complex bad "Spaceship" in
  Graph.add_root bad x;
  check "undeclared entity flagged" true
    (Schema.validate Schema.restaurant_schema bad <> [])

let test_schema_validate_edges () =
  let g = Graph.create () in
  let r = Graph.add_complex g "Restaurant" in
  let c = Graph.add_complex g "City" in
  Graph.link g ~src:r ~dst:c (Graph.rel_edge "offers");  (* wrong target type *)
  check "type error flagged" true
    (Schema.validate Schema.restaurant_schema g <> [])

let test_schema_multiplicities () =
  (* located-in is n:1 — a restaurant in two cities violates it *)
  let g = Graph.create () in
  let r = Graph.add_complex g "Restaurant" in
  let nm = Graph.add_atom g (Value.string "X") in
  Graph.link g ~src:r ~dst:nm (Graph.attr_edge "name");
  let mk_city name =
    let c = Graph.add_complex g "City" in
    let v = Graph.add_atom g (Value.string name) in
    Graph.link g ~src:c ~dst:v (Graph.attr_edge "name");
    c
  in
  Graph.link g ~src:r ~dst:(mk_city "A") (Graph.rel_edge "located-in");
  check "one city fine" true
    (Schema.check_multiplicities Schema.restaurant_schema g = []);
  Graph.link g ~src:r ~dst:(mk_city "B") (Graph.rel_edge "located-in");
  check "two cities flagged" true
    (Schema.check_multiplicities Schema.restaurant_schema g <> []);
  (* offers is 1:n — a menu offered by two restaurants violates it *)
  let g2 = Gql_workload.Gen.restaurants ~seed:5 ~menu_fraction:1.0 3 in
  check "generated ok" true (Schema.check_multiplicities Schema.restaurant_schema g2 = []);
  let menus = Graph.nodes_labelled g2 "Menu" in
  let rests = Graph.nodes_labelled g2 "Restaurant" in
  (match menus, rests with
  | m :: _, r1 :: r2 :: _ ->
    let other =
      if List.exists (fun (n, d) -> n = "offers" && d = m) (Graph.rels g2 r1)
      then r2 else r1
    in
    Graph.link g2 ~src:other ~dst:m (Graph.rel_edge "offers");
    check "double offer flagged" true
      (Schema.check_multiplicities Schema.restaurant_schema g2 <> [])
  | _ -> Alcotest.fail "workload shape")

(* --- rule checks -------------------------------------------------------- *)

let test_check_rule () =
  (* negated construction edge is ill-formed *)
  let b = Ast.Build.create () in
  let a = Ast.Build.entity b "Document" in
  let c = Ast.Build.entity b "Document" in
  Ast.Build.edge b ~role:Ast.Construct ~mode:Ast.Negated ~label:"x" a c;
  check "negated green flagged" true (Ast.check_rule (Ast.Build.finish b) <> []);
  (* query edge touching a construction node *)
  let b2 = Ast.Build.create () in
  let q = Ast.Build.entity b2 "Document" in
  let g = Ast.Build.entity b2 ~role:Ast.Construct "Document" in
  Ast.Build.edge b2 ~label:"x" q g;
  check "red edge to green node flagged" true (Ast.check_rule (Ast.Build.finish b2) <> [])

let test_check_against_schema () =
  let b = Ast.Build.create () in
  let r = Ast.Build.entity b "Restaurant" in
  let m = Ast.Build.entity b "Menu" in
  Ast.Build.edge b ~label:"nonsense" r m;
  check "unknown relation flagged" true
    (Ast.check_against_schema Schema.restaurant_schema (Ast.Build.finish b) <> []);
  let b2 = Ast.Build.create () in
  let r2 = Ast.Build.entity b2 "Starship" in
  let _ = r2 in
  check "unknown entity flagged" true
    (Ast.check_against_schema Schema.restaurant_schema (Ast.Build.finish b2) <> [])

let test_stratification_warning () =
  let src = {|wglog
rule
  node a Document
  node b Document
  negedge a sibling b
  cedge b sibling a
end
|} in
  let p = Gql_lang.Wglog_text.parse_program src in
  check "warned" true (Ast.stratification_warnings p <> [])

(* --- goals (pure queries) ------------------------------------------------ *)

let test_goal_embeddings () =
  let g = Gql_workload.Gen.restaurants ~seed:5 10 in
  let b = Ast.Build.create () in
  let r = Ast.Build.entity b "Restaurant" in
  let m = Ast.Build.entity b "Menu" in
  Ast.Build.edge b ~label:"offers" r m;
  let embs = Eval.goal g (Ast.Build.finish b) in
  check "some offers" true (List.length embs > 0);
  List.iter
    (fun e ->
      check "typed correctly" true
        (Graph.label g e.(0) = Some "Restaurant" && Graph.label g e.(1) = Some "Menu"))
    embs

let test_goal_slot_condition () =
  let g = Gql_workload.Gen.restaurants ~seed:5 20 in
  let b = Ast.Build.create () in
  let m = Ast.Build.entity b "Menu" in
  let v = Ast.Build.value b ~cond:[ Ast.Cmp (Ast.Lt, Value.float 20.0) ] () in
  Ast.Build.edge b ~label:"price" m v;
  let cheap = List.length (Eval.goal g (Ast.Build.finish b)) in
  let b2 = Ast.Build.create () in
  let m2 = Ast.Build.entity b2 "Menu" in
  let v2 = Ast.Build.value b2 () in
  Ast.Build.edge b2 ~label:"price" m2 v2;
  let all = List.length (Eval.goal g (Ast.Build.finish b2)) in
  check "some cheap" true (cheap > 0);
  check "strictly fewer" true (cheap < all)

let test_goal_const_value () =
  let g = Gql_workload.Gen.restaurants ~seed:5 10 in
  let b = Ast.Build.create () in
  let c = Ast.Build.entity b "City" in
  let v = Ast.Build.const b (Value.string "Milano") in
  Ast.Build.edge b ~label:"name" c v;
  check_int "exactly one Milano node" 1 (List.length (Eval.goal g (Ast.Build.finish b)))

let test_goal_regex_condition () =
  let g = Gql_workload.Gen.restaurants ~seed:5 10 in
  let b = Ast.Build.create () in
  let r = Ast.Build.entity b "Restaurant" in
  let v = Ast.Build.value b ~cond:[ Ast.Re "Trattoria [0-4]" ] () in
  Ast.Build.edge b ~label:"name" r v;
  check_int "five matching names" 5 (List.length (Eval.goal g (Ast.Build.finish b)))

(* --- fixpoint: the paper's rules ------------------------------------------ *)

let q10 () = Gql_lang.Wglog_text.parse_program
  ~schema:Schema.restaurant_schema Gql_workload.Queries.q10_src

let test_q10_rest_list () =
  let g = Gql_workload.Gen.restaurants ~seed:5 ~menu_fraction:0.5 20 in
  (* expected: restaurants with at least one offers edge *)
  let expected =
    List.length
      (List.filter
         (fun n -> List.exists (fun (nm, _) -> nm = "offers") (Graph.rels g n))
         (Graph.nodes_labelled g "Restaurant"))
  in
  let stats = Eval.run g (q10 ()) in
  check "converged" true (stats.Eval.rounds <= 3);
  check_int "one rest-list created" 1 (List.length (Graph.nodes_labelled g "rest-list"));
  let rl = List.hd (Graph.nodes_labelled g "rest-list") in
  let members = List.filter (fun (nm, _) -> nm = "member") (Graph.rels g rl) in
  check_int "one member per offering restaurant" expected (List.length members);
  (* members are distinct restaurants *)
  check_int "distinct members" expected
    (List.length (List.sort_uniq compare (List.map snd members)))

let test_q10_idempotent () =
  let g = Gql_workload.Gen.restaurants ~seed:5 10 in
  let _ = Eval.run g (q10 ()) in
  let before = (Graph.n_nodes g, Graph.n_edges g) in
  let stats2 = Eval.run g (q10 ()) in
  check "second run adds nothing" true
    ((Graph.n_nodes g, Graph.n_edges g) = before && stats2.Eval.edges_added = 0)

let test_q11_siblings () =
  let g = Graph.create () in
  let idx = Graph.add_complex g "Document" in
  let a = Graph.add_complex g "Document" in
  let b = Graph.add_complex g "Document" in
  let c = Graph.add_complex g "Document" in
  Graph.add_root g idx;
  Graph.link g ~src:idx ~dst:a (Graph.rel_edge "index");
  Graph.link g ~src:idx ~dst:b (Graph.rel_edge "index");
  Graph.link g ~src:a ~dst:c (Graph.rel_edge "link");
  let p = Gql_lang.Wglog_text.parse_program ~schema:Schema.hyperdoc_schema
    Gql_workload.Queries.q11_src in
  let _ = Eval.run g p in
  let sib n = List.filter (fun (nm, _) -> nm = "sibling") (Graph.rels g n) in
  (* a-b, b-a, a-a, b-b: homomorphic semantics derives self-siblings too *)
  check "a sibling b" true (List.mem ("sibling", b) (sib a));
  check "b sibling a" true (List.mem ("sibling", a) (sib b));
  check "c not sibling" true (sib c = [])

let test_q12_root_links () =
  (* chain r -index-> a -index-> b, plus an orphan o with no index in *)
  let g = Graph.create () in
  let r = Graph.add_complex g "Document" in
  let a = Graph.add_complex g "Document" in
  let b = Graph.add_complex g "Document" in
  Graph.add_root g r;
  Graph.link g ~src:r ~dst:a (Graph.rel_edge "index");
  Graph.link g ~src:a ~dst:b (Graph.rel_edge "index");
  let p = Gql_lang.Wglog_text.parse_program ~schema:Schema.hyperdoc_schema
    Gql_workload.Queries.q12_src in
  let _ = Eval.run g p in
  let roots n = List.filter (fun (nm, _) -> nm = "root") (Graph.rels g n) in
  check "r roots a" true (List.mem ("root", a) (roots r));
  check "r roots b (index+)" true (List.mem ("root", b) (roots r));
  check "a roots nothing (has incoming index)" true (roots a = [])

(* --- fixpoint mechanics ----------------------------------------------------- *)

let transitive_closure_src = {|wglog
rule
  node a Document
  node b Document
  node c Document
  edge a link b
  edge b link c
  cedge a link c
end
|}

let chain_graph n =
  let g = Graph.create () in
  let docs = Array.init n (fun _ -> Graph.add_complex g "Document") in
  Graph.add_root g docs.(0);
  for i = 0 to n - 2 do
    Graph.link g ~src:docs.(i) ~dst:docs.(i + 1) (Graph.rel_edge "link")
  done;
  g

let count_links g =
  let n = ref 0 in
  for i = 0 to Graph.n_nodes g - 1 do
    n := !n + List.length (List.filter (fun (nm, _) -> nm = "link") (Graph.rels g i))
  done;
  !n

let test_transitive_closure () =
  let p = Gql_lang.Wglog_text.parse_program transitive_closure_src in
  let g = chain_graph 6 in
  let stats = Eval.run g p in
  (* closure of a 6-chain: 5+4+3+2+1 = 15 links *)
  check_int "closure size" 15 (count_links g);
  check "recursion took rounds" true (stats.Eval.rounds > 2)

let test_naive_equals_seminaive () =
  let p () = Gql_lang.Wglog_text.parse_program transitive_closure_src in
  let g1 = chain_graph 7 in
  let g2 = chain_graph 7 in
  let _ = Eval.run ~strategy:`Naive g1 (p ()) in
  let _ = Eval.run ~strategy:`Semi_naive g2 (p ()) in
  check_int "same closure naive/semi-naive" (count_links g1) (count_links g2);
  check_int "same node count" (Graph.n_nodes g1) (Graph.n_nodes g2)

(* Green-edge existence tells a slot edge from a relation edge of the
   same name: a [Rel] "tag" edge does not satisfy a green slot edge, nor
   an [Attribute] "tag" edge a green relation edge. *)
let test_slot_and_rel_distinct () =
  let g = Graph.create () in
  let r = Graph.add_complex g "Restaurant" in
  let v = Graph.add_atom g (Value.string "x") in
  let m = Graph.add_complex g "Menu" in
  Graph.link g ~src:r ~dst:v (Graph.rel_edge "tag");
  Graph.link g ~src:r ~dst:m (Graph.attr_edge "tag");
  let p () =
    Gql_lang.Wglog_text.parse_program
      {|wglog
rule
  node r Restaurant
  const v "x"
  node m Menu
  edge r tag v
  edge r tag m
  cedge r tag v
  cedge r tag m
end
|}
  in
  let stats = Eval.run g (p ()) in
  check_int "both green edges added" 2 stats.Eval.edges_added;
  let kinds dst =
    List.filter_map
      (fun (d, (e : Graph.edge)) -> if d = dst then Some e.Graph.kind else None)
      (Graph.out g r)
    |> List.sort compare
  in
  check "slot added beside the rel edge" true
    (kinds v = List.sort compare [ Graph.Rel; Graph.Attribute ]);
  check "rel added beside the slot edge" true
    (kinds m = List.sort compare [ Graph.Rel; Graph.Attribute ]);
  check_int "second run adds nothing" 0 (Eval.run g (p ())).Eval.edges_added

(* A run on a saturated graph, or on a fork of it (which starts on the
   parent's index), derives nothing. *)
let test_saturated_rerun () =
  let p () =
    Gql_lang.Wglog_text.parse_program
      {|wglog
rule
  node a Document
  node b Document
  pathedge a link+ b
  cedge a reaches b
end
|}
  in
  let g = chain_graph 8 in
  ignore (Index.refresh g);
  let first = Eval.run g (p ()) in
  check_int "closure derived" 28 first.Eval.edges_added;
  let size = (Graph.n_nodes g, Graph.n_edges g) in
  let again = Eval.run g (p ()) in
  check_int "rerun adds no edges" 0 again.Eval.edges_added;
  check "graph unchanged" true ((Graph.n_nodes g, Graph.n_edges g) = size);
  let fork = Graph.copy g in
  check_int "fork adds no edges" 0 (Eval.run fork (p ())).Eval.edges_added

let test_skolem_per_binding () =
  (* a construction node connected to a query node gets one instance per
     binding *)
  let src = {|wglog
rule
  node r Restaurant
  cnode badge any
  cedge r decorated-with badge
end
|} in
  let g = Gql_workload.Gen.restaurants ~seed:5 6 in
  let n_rest = List.length (Graph.nodes_labelled g "Restaurant") in
  let p = Gql_lang.Wglog_text.parse_program src in
  let _ = Eval.run g p in
  check_int "one badge per restaurant" n_rest
    (List.length (Graph.nodes_labelled g "entity"))

let test_max_rounds_guard () =
  (* a rule that would generate fresh nodes forever is cut by max_rounds:
     each round matches the new node and builds another *)
  let src = {|wglog
rule
  node d Document
  cnode e Document
  cedge d link e
end
|} in
  (* Skolemisation keys on d's binding, so this actually converges after
     2 rounds: new nodes get their own successor once. Guard still
     exercised via tiny max_rounds. *)
  let g = chain_graph 2 in
  let p = Gql_lang.Wglog_text.parse_program src in
  let stats = Eval.run ~max_rounds:1 g p in
  check_int "stopped at guard" 1 stats.Eval.rounds

let test_invalid_program_rejected () =
  let b = Ast.Build.create () in
  let a = Ast.Build.entity b "Document" in
  let c = Ast.Build.entity b ~role:Ast.Construct "Document" in
  Ast.Build.edge b ~label:"x" a c;  (* red edge into green node *)
  let p = { Ast.schema = None; rules = [ Ast.Build.finish b ] } in
  let g = chain_graph 2 in
  match Eval.run g p with
  | _ -> Alcotest.fail "expected Invalid_query"
  | exception Eval.Invalid_query _ -> ()

let test_goal_rejects_collect_query_edge () =
  (* a Collect-mode edge between two query nodes is exactly the shape
     that used to reach the `assert false` in the edge compiler; goal
     now front-runs it with the static check and the typed error *)
  let b = Ast.Build.create () in
  let n0 = Ast.Build.entity b "Document" in
  let n1 = Ast.Build.entity b "Document" in
  Ast.Build.edge b ~mode:Ast.Collect ~label:"member" n0 n1;
  let r = Ast.Build.finish b in
  let g = chain_graph 2 in
  match Eval.goal g r with
  | _ -> Alcotest.fail "expected Invalid_query"
  | exception Eval.Invalid_query _ -> ()

let test_negated_edge_semantics () =
  (* pairwise negation: both endpoints anchored by slot edges *)
  let g = Graph.create () in
  let mk name =
    let d = Graph.add_complex g "Document" in
    let t = Graph.add_atom g (Value.string name) in
    Graph.link g ~src:d ~dst:t (Graph.attr_edge "title");
    d
  in
  let a = mk "a" and b = mk "b" and c = mk "c" in
  Graph.add_root g a;
  ignore c;
  Graph.link g ~src:a ~dst:b (Graph.rel_edge "link");
  let bld = Ast.Build.create () in
  let x = Ast.Build.entity bld "Document" in
  let vx = Ast.Build.value bld () in
  let y = Ast.Build.entity bld "Document" in
  let vy = Ast.Build.value bld () in
  Ast.Build.edge bld ~label:"title" x vx;
  Ast.Build.edge bld ~label:"title" y vy;
  Ast.Build.negated bld ~label:"link" x y;
  let embs = Eval.goal g (Ast.Build.finish bld) in
  (* ordered pairs without a link edge: 9 - 1 = 8 *)
  check_int "non-linked pairs" 8 (List.length embs)

let test_free_negation_universal () =
  (* a crossed edge with an unconstrained endpoint means NOT EXISTS: the
     GraphLog-root reading *)
  let g = Graph.create () in
  let r = Graph.add_complex g "Document" in
  let a = Graph.add_complex g "Document" in
  Graph.add_root g r;
  Graph.link g ~src:r ~dst:a (Graph.rel_edge "index");
  let bld = Ast.Build.create () in
  let o = Ast.Build.entity bld "Document" in
  let d = Ast.Build.entity bld "Document" in
  Ast.Build.negated bld ~label:"index" o d;
  (* d is anchored by a green edge (as in the Q12 figure); o stays free *)
  Ast.Build.derive bld ~label:"is-root" d d;
  let embs = Eval.goal g (Ast.Build.finish bld) in
  (* only r has no incoming index edge *)
  check_int "unindexed documents" 1 (List.length embs)

(* Regex conditions at the two call sites that used to compile once per
   embedding: a free-negation value node (every restaurant without a
   name matching /Trattoria [0-4]/) and a green value node.  The
   green-part search tests each existing "tag" slot against /spec.*/
   for every menu of a restaurant: a third of the restaurants already
   carry a matching tag, a third a decoy that must not count.  The
   stats and the derived graph are pinned: compiling the conditions
   once per query must not change what the rule derives. *)
let regex_rule () =
  let b = Ast.Build.create () in
  let r = Ast.Build.entity b "Restaurant" in
  let m = Ast.Build.entity b "Menu" in
  let n = Ast.Build.value b ~cond:[ Ast.Re "Trattoria [0-4]" ] () in
  let t = Ast.Build.value b ~role:Ast.Construct ~cond:[ Ast.Re "spec.*" ] () in
  Ast.Build.edge b ~label:"offers" r m;
  Ast.Build.negated b ~label:"name" r n;
  Ast.Build.derive b ~label:"tag" r t;
  { Ast.schema = None; rules = [ Ast.Build.finish b ] }

let graph_digest (g : Graph.t) =
  let buf = Buffer.create 4096 in
  Gql_graph.Digraph.iter_nodes
    (fun i kind ->
      Buffer.add_string buf
        (match kind with
        | Graph.Complex l -> Printf.sprintf "%d:%s\n" i l
        | Graph.Atom v -> Printf.sprintf "%d=%s\n" i (Value.to_string v)))
    (Graph.digraph g);
  Gql_graph.Digraph.iter_edges
    (fun ~src ~dst (e : Graph.edge) ->
      Buffer.add_string buf
        (Printf.sprintf "%d>%d %s %s %d\n" src dst
           (match e.Graph.kind with
           | Graph.Child -> "child"
           | Graph.Attribute -> "attr"
           | Graph.Ref -> "ref"
           | Graph.Rel -> "rel")
           e.Graph.name e.Graph.gen))
    (Graph.digraph g);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_regex_conditions_fixpoint () =
  List.iter
    (fun (strategy, use_index, embeddings) ->
      let g = Gql_workload.Gen.restaurants ~seed:5 200 in
      let special = Graph.add_atom g (Value.string "special") in
      let decoy = Graph.add_atom g (Value.string "plain") in
      Gql_graph.Digraph.iter_nodes
        (fun i kind ->
          if kind = Graph.Complex "Restaurant" && i mod 3 < 2 then
            Graph.link g ~src:i
              ~dst:(if i mod 3 = 0 then special else decoy)
              (Graph.attr_edge "tag"))
        (Graph.digraph g);
      let st = Eval.run ~strategy ~use_index g (regex_rule ()) in
      check_int "rounds" 2 st.Eval.rounds;
      check_int "embeddings" embeddings st.Eval.embeddings_found;
      check_int "nodes added" 19 st.Eval.nodes_added;
      check_int "edges added" 19 st.Eval.edges_added;
      Alcotest.(check string)
        "derived graph" "420b98271d1b0b6ec51502bb153094ee" (graph_digest g))
    [ (`Semi_naive, true, 53); (`Semi_naive, false, 53); (`Naive, true, 106) ]

let () =
  Alcotest.run "gql_wglog"
    [
      ( "schema",
        [
          Alcotest.test_case "consistency" `Quick test_schema_check;
          Alcotest.test_case "data validation" `Quick test_schema_validate_data;
          Alcotest.test_case "edge typing" `Quick test_schema_validate_edges;
          Alcotest.test_case "multiplicities" `Quick test_schema_multiplicities;
        ] );
      ( "checks",
        [
          Alcotest.test_case "rule checks" `Quick test_check_rule;
          Alcotest.test_case "schema checks" `Quick test_check_against_schema;
          Alcotest.test_case "stratification" `Quick test_stratification_warning;
        ] );
      ( "goals",
        [
          Alcotest.test_case "embeddings" `Quick test_goal_embeddings;
          Alcotest.test_case "slot conditions" `Quick test_goal_slot_condition;
          Alcotest.test_case "const values" `Quick test_goal_const_value;
          Alcotest.test_case "regex conditions" `Quick test_goal_regex_condition;
          Alcotest.test_case "negated edges" `Quick test_negated_edge_semantics;
          Alcotest.test_case "free negation" `Quick test_free_negation_universal;
        ] );
      ( "figures",
        [
          Alcotest.test_case "Q10 rest-list" `Quick test_q10_rest_list;
          Alcotest.test_case "Q10 idempotent" `Quick test_q10_idempotent;
          Alcotest.test_case "Q11 siblings" `Quick test_q11_siblings;
          Alcotest.test_case "Q12 root links" `Quick test_q12_root_links;
        ] );
      ( "fixpoint",
        [
          Alcotest.test_case "transitive closure" `Quick test_transitive_closure;
          Alcotest.test_case "naive = semi-naive" `Quick test_naive_equals_seminaive;
          Alcotest.test_case "skolem per binding" `Quick test_skolem_per_binding;
          Alcotest.test_case "slot and rel edges distinct" `Quick
            test_slot_and_rel_distinct;
          Alcotest.test_case "saturated rerun" `Quick test_saturated_rerun;
          Alcotest.test_case "max rounds guard" `Quick test_max_rounds_guard;
          Alcotest.test_case "invalid rejected" `Quick test_invalid_program_rejected;
          Alcotest.test_case "collect edge rejected" `Quick
            test_goal_rejects_collect_query_edge;
          Alcotest.test_case "regex conditions" `Quick
            test_regex_conditions_fixpoint;
        ] );
    ]
