(* The experiment harness: one section per experiment in DESIGN.md's
   index (E1-E10), each printing a paper-style table.

     dune exec bench/main.exe                    # run everything
     dune exec bench/main.exe e3 e7              # selected experiments
     dune exec bench/main.exe -- e15 --json F    # also write the records to F
     dune exec bench/main.exe micro              # Bechamel microbenchmarks

   The exit status is non-zero when an experiment name is unknown or a
   self-check fails (experiments [failwith] on a broken invariant).

   The paper (survey band) has no performance tables of its own; the
   figures are reproduced as executable artefacts and the performance
   characterisation is the substituted evaluation recorded in
   EXPERIMENTS.md. *)

(* --seed N shifts every workload-generator seed: each run stays fully
   deterministic, but the whole trajectory (and E12's request mix) can
   be re-rolled reproducibly. *)
let seed_base = ref 0
let seed k = k + !seed_base

type timing = {
  median_ms : float;
  min_ms : float;
  minor_words : float;  (** minor-heap words allocated, per run *)
  major_words : float;  (** major-heap words allocated, per run *)
}

let timed ?(repeat = 3) f =
  (* One warm-up run first (page in code paths, fill caches), then
     median-of-k wall clock; the minimum is kept as the low-noise
     floor.  Tables print the median, BENCH JSON records both, plus
     the per-run GC allocation ({!Gc.quick_stat} deltas averaged over
     the measured runs) so allocation regressions show up alongside
     time. *)
  ignore (f ());
  let g0 = Gc.quick_stat () in
  let runs =
    List.init repeat (fun _ ->
        let t0 = Unix.gettimeofday () in
        let r = f () in
        ((Unix.gettimeofday () -. t0) *. 1000.0, r))
  in
  let g1 = Gc.quick_stat () in
  let per_run x = x /. float_of_int repeat in
  let times = List.sort compare (List.map fst runs) in
  let _, r = List.nth runs (repeat - 1) in
  ( {
      median_ms = List.nth times (repeat / 2);
      min_ms = List.hd times;
      minor_words = per_run (g1.Gc.minor_words -. g0.Gc.minor_words);
      major_words = per_run (g1.Gc.major_words -. g0.Gc.major_words);
    },
    r )

let ms (t : timing) = t.median_ms

let header title =
  Printf.printf "\n================ %s ================\n" title

let row fmt = Printf.printf fmt

(* ------------------------------------------------------------------ *)
(* Machine-readable trajectory (--json PATH)                          *)
(* ------------------------------------------------------------------ *)

type json =
  | J_int of int
  | J_num of float
  | J_str of string
  | J_bool of bool
  | J_list of json list
  | J_obj of (string * json) list

let rec json_to_buf buf = function
  | J_int i -> Buffer.add_string buf (string_of_int i)
  | J_num f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.1f" f)
    else Buffer.add_string buf (Printf.sprintf "%.6g" f)
  | J_str s ->
    Buffer.add_char buf '"';
    String.iter
      (function
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c when Char.code c < 32 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  | J_bool b -> Buffer.add_string buf (string_of_bool b)
  | J_list l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string buf ", ";
        json_to_buf buf x)
      l;
    Buffer.add_char buf ']'
  | J_obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        json_to_buf buf (J_str k);
        Buffer.add_string buf ": ";
        json_to_buf buf v)
      kvs;
    Buffer.add_char buf '}'

let records : json list ref = ref []

(** Append one measurement record; every experiment pushes its table
    rows here so [--json] can dump the whole trajectory. *)
let record ~experiment fields =
  records := J_obj (("experiment", J_str experiment) :: fields) :: !records

let j_timing (t : timing) =
  [
    ("median_ms", J_num t.median_ms);
    ("min_ms", J_num t.min_ms);
    ("minor_words", J_num t.minor_words);
    ("major_words", J_num t.major_words);
  ]

(* Online CPUs available to this process ([nproc] honours affinity);
   the runtime's own recommendation when [nproc] is unavailable. *)
let cores () =
  match Unix.open_process_in "nproc 2>/dev/null" with
  | exception Unix.Unix_error _ -> Domain.recommended_domain_count ()
  | ic ->
    let n = try int_of_string_opt (String.trim (input_line ic)) with End_of_file -> None in
    ignore (Unix.close_process_in ic);
    Option.value n ~default:(Domain.recommended_domain_count ())

let write_json path =
  let buf = Buffer.create 4096 in
  json_to_buf buf
    (J_obj
       [
         ("schema", J_str "bench-trajectory-v2");
         ("cores", J_int (cores ()));
         ("ocaml_version", J_str Sys.ocaml_version);
         ("recommended_domain_count", J_int (Domain.recommended_domain_count ()));
         ("records", J_list (List.rev !records));
       ]);
  Buffer.add_char buf '\n';
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "\nwrote %s (%d records)\n" path (List.length !records)

(* ------------------------------------------------------------------ *)
(* E1 — the WG-Log restaurant figure at scale                          *)
(* ------------------------------------------------------------------ *)

let e1 () =
  header "E1  WG-Log: rest-list of restaurants offering menus";
  row "%8s  %10s  %8s  %10s  %10s\n" "n_rest" "embeddings" "members" "rounds" "ms";
  List.iter
    (fun n ->
      let tm, (stats, members) =
        timed (fun () ->
            let g = Gql_workload.Gen.restaurants ~seed:(seed 41) ~menu_fraction:0.6 n in
            let p =
              Gql_lang.Wglog_text.parse_program
                ~schema:Gql_wglog.Schema.restaurant_schema
                Gql_workload.Queries.q10_src
            in
            let stats = Gql_wglog.Eval.run g p in
            let rl = Gql_data.Graph.nodes_labelled g "rest-list" in
            let members =
              match rl with
              | [ l ] ->
                List.length
                  (List.filter (fun (nm, _) -> nm = "member") (Gql_data.Graph.rels g l))
              | _ -> -1
            in
            (stats, members))
      in
      record ~experiment:"e1"
        ([ ("n_restaurants", J_int n);
           ("embeddings", J_int stats.Gql_wglog.Eval.embeddings_found);
           ("members", J_int members);
           ("rounds", J_int stats.Gql_wglog.Eval.rounds) ]
        @ j_timing tm);
      row "%8d  %10d  %8d  %10d  %10.2f\n" n stats.Gql_wglog.Eval.embeddings_found
        members stats.Gql_wglog.Eval.rounds (ms tm))
    [ 100; 500; 2000 ]

(* ------------------------------------------------------------------ *)
(* E2 — DTD vs XML-GL schema agreement                                  *)
(* ------------------------------------------------------------------ *)

let e2 () =
  header "E2  schema expressiveness: DTD vs XML-GL graph (figures DTD1/DTD2)";
  let schema = Gql_xmlgl.Schema.of_dtd Gql_workload.Gen.book_dtd in
  row "%12s  %8s  %10s  %12s  %12s\n" "defect_rate" "corpus" "agreement" "dtd_ms" "xmlgl_ms";
  List.iter
    (fun rate ->
      let corpus =
        List.init 40 (fun seed ->
            let doc = Gql_workload.Gen.bibliography ~seed ~defect_rate:rate 20 in
            (doc, fst (Gql_data.Codec.encode doc)))
      in
      let dtd_ms, dtd_verdicts =
        timed (fun () ->
            List.map
              (fun (doc, _) -> Gql_dtd.Validate.is_valid Gql_workload.Gen.book_dtd doc)
              corpus)
      in
      let gl_ms, gl_verdicts =
        timed (fun () ->
            List.map (fun (_, g) -> Gql_xmlgl.Schema.is_valid schema g) corpus)
      in
      let agree =
        List.length
          (List.filter Fun.id (List.map2 ( = ) dtd_verdicts gl_verdicts))
      in
      row "%12.2f  %8d  %9d%%  %12.2f  %12.2f\n" rate (List.length corpus)
        (100 * agree / List.length corpus)
        (ms dtd_ms) (ms gl_ms))
    [ 0.0; 0.3; 0.7; 1.0 ];
  (* the separating document *)
  let swapped = "<BOOK isbn=\"1\"><price>1</price><title>t</title></BOOK>" in
  let doc = Gql_xml.Parser.parse_document swapped in
  let g = fst (Gql_data.Codec.encode doc) in
  row "beyond-DTD check (price before title): DTD=%s  unordered-XML-GL=%s\n"
    (if Gql_dtd.Validate.is_valid Gql_workload.Gen.book_dtd doc then "valid" else "invalid")
    (if Gql_xmlgl.Schema.is_valid Gql_xmlgl.Schema.book_schema g then "valid" else "invalid")

(* ------------------------------------------------------------------ *)
(* E3/E4 — the two XML-GL figures as queries                           *)
(* ------------------------------------------------------------------ *)

let run_fig ~tag name src xpath mk_db sizes =
  header name;
  row "%8s  %9s  %9s  %11s  %11s\n" "size" "gl_hits" "xp_hits" "xmlgl_ms" "xpath_ms";
  List.iter
    (fun n ->
      let db = mk_db n in
      let gl_ms, gl =
        timed (fun () ->
            List.length (Gql_core.Gql.run_xmlgl_text db src).Gql_xml.Tree.children)
      in
      let xp_ms, xp =
        timed (fun () -> List.length (Gql_core.Gql.xpath_select db xpath))
      in
      let nodes, edges = Gql_core.Gql.stats db in
      record ~experiment:tag
        [ ("size", J_int n); ("graph_nodes", J_int nodes);
          ("graph_edges", J_int edges); ("xmlgl_hits", J_int gl);
          ("xpath_hits", J_int xp); ("xmlgl", J_obj (j_timing gl_ms));
          ("xpath", J_obj (j_timing xp_ms)) ];
      row "%8d  %9d  %9d  %11.2f  %11.2f\n" n gl xp (ms gl_ms) (ms xp_ms))
    sizes

let e3 () =
  run_fig ~tag:"e3" "E3  figure XML-GL-simple: all BOOK elements (deep copy)"
    Gql_workload.Queries.q1_src Gql_workload.Queries.q1_xpath
    (fun n -> Gql_core.Gql.of_document (Gql_workload.Gen.bibliography ~seed:(seed 42) n))
    [ 50; 200; 1000 ]

let e4 () =
  run_fig ~tag:"e4" "E4  figure XML-GL-aggregate: persons with FULLADDR projected"
    Gql_workload.Queries.q3_src Gql_workload.Queries.q3_xpath
    (fun n -> Gql_core.Gql.of_document (Gql_workload.Gen.people ~seed:(seed 43) n))
    [ 50; 200; 1000 ]

(* ------------------------------------------------------------------ *)
(* E5 — the GraphLog figures on hyperdocument webs                      *)
(* ------------------------------------------------------------------ *)

let e5 () =
  header "E5  GraphLog figures: sibling links and index+ root links";
  row "%8s  %12s  %12s  %12s  %12s\n" "docs" "sibling+" "sibling_ms" "root+" "root_ms";
  List.iter
    (fun n ->
      let sib_ms, sib =
        timed (fun () ->
            let g = Gql_workload.Gen.hyperdocs ~seed:(seed 44) ~fanout:3 ~link_factor:1 n in
            let p =
              Gql_lang.Wglog_text.parse_program
                ~schema:Gql_wglog.Schema.hyperdoc_schema Gql_workload.Queries.q11_src
            in
            (Gql_wglog.Eval.run g p).Gql_wglog.Eval.edges_added)
      in
      let root_ms, root =
        timed (fun () ->
            let g = Gql_workload.Gen.hyperdocs ~seed:(seed 44) ~fanout:3 ~link_factor:1 n in
            let p =
              Gql_lang.Wglog_text.parse_program
                ~schema:Gql_wglog.Schema.hyperdoc_schema Gql_workload.Queries.q12_src
            in
            (Gql_wglog.Eval.run g p).Gql_wglog.Eval.edges_added)
      in
      record ~experiment:"e5"
        [ ("docs", J_int n); ("sibling_edges", J_int sib);
          ("root_edges", J_int root); ("sibling", J_obj (j_timing sib_ms));
          ("root", J_obj (j_timing root_ms)) ];
      row "%8d  %12d  %12.2f  %12d  %12.2f\n" n sib (ms sib_ms) root (ms root_ms))
    [ 50; 150; 400 ]

(* ------------------------------------------------------------------ *)
(* E6 — the expressiveness matrix, witness-checked                      *)
(* ------------------------------------------------------------------ *)

let e6 () =
  header "E6  expressiveness matrix (the paper's comparison, verified)";
  print_string (Gql_core.Expressiveness.matrix_to_string ());
  let ok = ref 0 in
  List.iter
    (fun (e : Gql_workload.Queries.entry) ->
      let feats =
        match e.kind with
        | `Xmlgl p -> Gql_core.Expressiveness.of_xmlgl (Lazy.force p)
        | `Wglog p -> Gql_core.Expressiveness.of_wglog (Lazy.force p)
      in
      if feats <> [] then incr ok)
    Gql_workload.Queries.suite;
  row "witness queries classified: %d / %d\n" !ok
    (List.length Gql_workload.Queries.suite)

(* ------------------------------------------------------------------ *)
(* E7 — scalability: evaluation time vs document size                   *)
(* ------------------------------------------------------------------ *)

let e7 () =
  header "E7  evaluation time vs document size (XML-GL vs XPath baseline)";
  row "%-10s  %8s  %8s  %11s  %11s  %11s\n" "query" "size" "hits" "xmlgl_ms" "algebra_ms" "xpath_ms";
  let cases =
    [ ("Q2-select", Gql_workload.Queries.q2_src, Gql_workload.Queries.q2_xpath,
       (fun n -> Gql_workload.Gen.bibliography ~seed:(seed 45) n));
      ("Q4-join", Gql_workload.Queries.q4_src, Gql_workload.Queries.q4_xpath,
       (fun n -> Gql_workload.Gen.greengrocer ~seed:(seed 46) n));
      ("Q6-negate", Gql_workload.Queries.q6_src, Gql_workload.Queries.q6_xpath,
       (fun n -> Gql_workload.Gen.people ~seed:(seed 47) n)) ]
  in
  List.iter
    (fun (name, src, xpath, gen) ->
      List.iter
        (fun n ->
          let doc = gen n in
          let db = Gql_core.Gql.of_document doc in
          let p = Gql_core.Gql.parse_xmlgl src in
          let q = (List.hd p.Gql_xmlgl.Ast.rules).Gql_xmlgl.Ast.query in
          let gl_ms, hits =
            timed (fun () ->
                List.length (Gql_xmlgl.Matching.run db.Gql_core.Gql.graph q))
          in
          let alg_ms, _ =
            timed (fun () ->
                List.length (Gql_algebra.Exec.run_xmlgl db.Gql_core.Gql.graph q))
          in
          let xp_ms, _ =
            timed (fun () -> List.length (Gql_core.Gql.xpath_select db xpath))
          in
          record ~experiment:"e7"
            [ ("query", J_str name); ("size", J_int n); ("hits", J_int hits);
              ("xmlgl", J_obj (j_timing gl_ms));
              ("algebra", J_obj (j_timing alg_ms));
              ("xpath", J_obj (j_timing xp_ms)) ];
          row "%-10s  %8d  %8d  %11.2f  %11.2f  %11.2f\n" name n hits (ms gl_ms)
            (ms alg_ms) (ms xp_ms))
        [ 100; 400; 1600 ])
    cases

(* ------------------------------------------------------------------ *)
(* E8 — deductive fixpoint: naive vs semi-naive                         *)
(* ------------------------------------------------------------------ *)

let e8 () =
  header "E8  WG-Log fixpoint: naive vs semi-naive (transitive closure)";
  let closure_src =
    "wglog\nrule\n  node a Document\n  node b Document\n  node c Document\n\
    \  edge a link b\n  edge b link c\n  cedge a link c\nend\n"
  in
  let chain n =
    let g = Gql_data.Graph.create () in
    let docs = Array.init n (fun _ -> Gql_data.Graph.add_complex g "Document") in
    Gql_data.Graph.add_root g docs.(0);
    for i = 0 to n - 2 do
      Gql_data.Graph.link g ~src:docs.(i) ~dst:docs.(i + 1)
        (Gql_data.Graph.rel_edge "link")
    done;
    g
  in
  row "%8s  %9s  %8s  %11s  %11s  %11s  %11s  %9s\n" "chain" "derived" "rounds"
    "naive_emb" "semi_emb" "naive_ms" "semi_ms" "speedup";
  List.iter
    (fun n ->
      let p () = Gql_lang.Wglog_text.parse_program closure_src in
      let naive_ms, naive_stats =
        timed ~repeat:1 (fun () -> Gql_wglog.Eval.run ~strategy:`Naive (chain n) (p ()))
      in
      let semi_ms, stats =
        timed ~repeat:1 (fun () ->
            let g = chain n in
            Gql_wglog.Eval.run ~strategy:`Semi_naive g (p ()))
      in
      (* embeddings_found is the work metric: naive re-derives every old
         embedding each round, semi-naive only touches the delta *)
      record ~experiment:"e8"
        [ ("chain", J_int n);
          ("derived", J_int stats.Gql_wglog.Eval.edges_added);
          ("rounds", J_int stats.Gql_wglog.Eval.rounds);
          ("naive_embeddings", J_int naive_stats.Gql_wglog.Eval.embeddings_found);
          ("semi_embeddings", J_int stats.Gql_wglog.Eval.embeddings_found);
          ("naive", J_obj (j_timing naive_ms));
          ("semi", J_obj (j_timing semi_ms));
          ("speedup", J_num (ms naive_ms /. ms semi_ms)) ];
      row "%8d  %9d  %8d  %11d  %11d  %11.2f  %11.2f  %8.2fx\n" n
        stats.Gql_wglog.Eval.edges_added stats.Gql_wglog.Eval.rounds
        naive_stats.Gql_wglog.Eval.embeddings_found
        stats.Gql_wglog.Eval.embeddings_found (ms naive_ms) (ms semi_ms)
        (ms naive_ms /. ms semi_ms))
    [ 16; 32; 64; 128 ]

(* ------------------------------------------------------------------ *)
(* E10 — visual scalability: clutter and layout cost                    *)
(* ------------------------------------------------------------------ *)

let e10 () =
  header "E10  layout: crossings and time vs query size (layered vs grid)";
  row "%8s  %8s  %12s  %12s  %12s  %12s\n" "nodes" "edges" "layered_x" "grid_x" "layered_ms" "grid_ms";
  let random_diagram n seed =
    (* a rule-shaped random diagram: mostly tree-like with extra join
       edges — the clutter source the paper worries about *)
    let rng = Gql_workload.Prng.create seed in
    let d = Gql_visual.Diagram.create "synthetic" in
    let ids =
      Array.init n (fun i ->
          Gql_visual.Diagram.add_node d Gql_visual.Diagram.Box (Printf.sprintf "n%d" i))
    in
    for i = 1 to n - 1 do
      Gql_visual.Diagram.add_edge d ids.(Gql_workload.Prng.int rng i) ids.(i)
    done;
    for _ = 1 to n / 3 do
      let a = Gql_workload.Prng.int rng n and b = Gql_workload.Prng.int rng n in
      if a <> b then Gql_visual.Diagram.add_edge d ids.(a) ids.(b)
    done;
    d
  in
  List.iter
    (fun n ->
      let d1 = random_diagram n 7 in
      let lay_ms, () = timed (fun () -> Gql_visual.Layout.layered d1) in
      let lx = Gql_visual.Layout.count_crossings d1 in
      let d2 = random_diagram n 7 in
      let grid_ms, () = timed (fun () -> Gql_visual.Layout.grid d2) in
      let gx = Gql_visual.Layout.count_crossings d2 in
      row "%8d  %8d  %12d  %12d  %12.2f  %12.2f\n" n (Gql_visual.Diagram.n_edges d1)
        lx gx (ms lay_ms) (ms grid_ms))
    [ 10; 20; 40; 80 ]

(* ------------------------------------------------------------------ *)
(* E11 — frozen index vs whole-graph scan                               *)
(* ------------------------------------------------------------------ *)

let e11 () =
  header "E11  embedding search: frozen label/value indexes vs graph scans";
  (* 150 labels x 400 entities, each with a unique key atom: 120k nodes,
     240k edges.  Scan-based matching pays a whole-graph pass per global
     candidate list; the index answers from one bucket. *)
  let build_tm, data =
    timed ~repeat:1 (fun () ->
        Gql_workload.Gen.labelled_graph ~labels:150 ~per_label:400 ~degree:3 ())
  in
  let n_nodes = Gql_data.Graph.n_nodes data in
  let n_edges = Gql_data.Graph.n_edges data in
  let index_tm, idx = timed (fun () -> Gql_data.Index.build data) in
  row "graph: %d nodes, %d edges (built in %.0f ms); index built in %.2f ms\n"
    n_nodes n_edges (ms build_tm) (ms index_tm);
  record ~experiment:"e11"
    [ ("graph_nodes", J_int n_nodes); ("graph_edges", J_int n_edges);
      ("index_build", J_obj (j_timing index_tm)) ];
  let point_query () =
    (* r:L40 --key--> "k-16123": label bucket + value bucket *)
    let open Gql_wglog.Ast.Build in
    let b = create () in
    let r = entity b "L40" in
    let v = const b (Gql_data.Value.string "k-16123") in
    edge b ~label:"key" r v;
    finish b
  in
  let join_query () =
    (* a:L7 --rel--> b:L8: a labelled join between two layers *)
    let open Gql_wglog.Ast.Build in
    let b = create () in
    let a = entity b "L7" in
    let c = entity b "L8" in
    edge b ~label:"rel" a c;
    finish b
  in
  row "%-12s  %8s  %12s  %12s  %9s\n" "query" "hits" "scan_ms" "indexed_ms" "speedup";
  List.iter
    (fun (name, rule) ->
      let cq = Gql_wglog.Eval.compile_query rule in
      let scan_tm, scan_hits =
        timed (fun () ->
            List.length (Gql_wglog.Eval.query_embeddings data rule cq))
      in
      let idx_tm, idx_hits =
        timed (fun () ->
            List.length (Gql_wglog.Eval.query_embeddings ~index:idx data rule cq))
      in
      if scan_hits <> idx_hits then
        failwith
          (Printf.sprintf "E11 %s: indexed (%d) and scan (%d) disagree" name
             idx_hits scan_hits);
      let speedup = ms scan_tm /. ms idx_tm in
      record ~experiment:"e11"
        [ ("query", J_str name); ("hits", J_int scan_hits);
          ("bindings_equal", J_bool true);
          ("scan", J_obj (j_timing scan_tm));
          ("indexed", J_obj (j_timing idx_tm)); ("speedup", J_num speedup) ];
      row "%-12s  %8d  %12.2f  %12.2f  %8.1fx\n" name scan_hits (ms scan_tm)
        (ms idx_tm) speedup)
    [ ("point", point_query ()); ("label-join", join_query ()) ]

(* ------------------------------------------------------------------ *)
(* E12 — the query service: closed-loop throughput and latency          *)
(* ------------------------------------------------------------------ *)

let percentile_us sorted q =
  if Array.length sorted = 0 then 0.0
  else
    sorted.(min (Array.length sorted - 1)
              (int_of_float (ceil (q *. float_of_int (Array.length sorted))) - 1))
    *. 1e6

let e12 () =
  header "E12  gql serve: closed-loop clients vs single-threaded direct evaluation";
  let clients = 4 and mix_n = 160 in
  let mix = Gql_workload.Queries.server_mix ~seed:!seed_base mix_n in
  (* the served corpus: three documents + the WG-Log restaurant base *)
  let config =
    { Gql_server.Server.default_config with workers = Some clients; result_cache = 512 }
  in
  let server = Gql_server.Server.create ~config () in
  let reg = Gql_server.Server.registry server in
  let load name doc =
    match Gql_server.Registry.load_xml reg ~name (Gql_xml.Printer.to_string doc) with
    | Ok _ -> ()
    | Error m -> failwith ("E12 load " ^ name ^ ": " ^ m)
  in
  load "bibliography" (Gql_workload.Gen.bibliography ~seed:(seed 61) 100);
  load "people" (Gql_workload.Gen.people ~seed:(seed 62) 400);
  load "greengrocer" (Gql_workload.Gen.greengrocer ~seed:(seed 63) 800);
  ignore
    (Gql_server.Registry.add_graph reg ~name:"restaurants"
       (Gql_workload.Gen.restaurants ~seed:(seed 64) 200));
  (* baseline: what a process without the service pays per request —
     parse + evaluate, one thread, same request stream *)
  let direct (q : Gql_workload.Queries.server_query) =
    let snap = Option.get (Gql_server.Registry.find reg q.doc) in
    let graph = snap.Gql_server.Registry.db.Gql_core.Gql.graph in
    match Gql_core.Gql.language_of_source q.source with
    | `Xmlgl ->
      let p = Gql_core.Gql.parse_xmlgl q.source in
      ignore
        (Gql_core.Gql.to_xml_string
           (Gql_xmlgl.Engine.run_program ~index:snap.Gql_server.Registry.index
              graph p))
    | `Wglog ->
      let schema =
        match q.schema with
        | Some "restaurant" -> Some Gql_wglog.Schema.restaurant_schema
        | Some "hyperdoc" -> Some Gql_wglog.Schema.hyperdoc_schema
        | _ -> None
      in
      let p = Gql_core.Gql.parse_wglog ?schema q.source in
      ignore
        (Gql_server.Server.wglog_stats_line
           (Gql_wglog.Eval.run (Gql_server.Registry.fork snap) p))
    | `Match ->
      let q = Gql_core.Gql.parse_match q.source in
      ignore
        (Gql_match.Eval.run ~index:snap.Gql_server.Registry.index graph q)
    | `Unknown -> failwith "E12: unknown query language"
  in
  let t0 = Unix.gettimeofday () in
  List.iter direct mix;
  let base_s = Unix.gettimeofday () -. t0 in
  let base_rps = float_of_int mix_n /. base_s in
  (* closed loop: [clients] threads over a Unix socket, round-robin
     slices of the same stream, per-request latency recorded *)
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gql-e12-%d.sock" (Unix.getpid ()))
  in
  let _listener = Gql_server.Server.listen server (Unix.ADDR_UNIX sock) in
  let slices =
    Array.init clients (fun k ->
        List.filteri (fun i _ -> i mod clients = k) mix |> Array.of_list)
  in
  let latencies = Array.map (fun slice -> Array.make (Array.length slice) 0.0) slices in
  let run_slice k () =
    let c = Gql_server.Client.connect_unix sock in
    Array.iteri
      (fun i (q : Gql_workload.Queries.server_query) ->
        let t = Unix.gettimeofday () in
        (match
           Gql_server.Client.run c ~doc:q.doc ?schema:q.schema (`Source q.source)
         with
        | Ok _ -> ()
        | Error m -> failwith ("E12 client: " ^ m));
        latencies.(k).(i) <- Unix.gettimeofday () -. t)
      slices.(k);
    ignore (Gql_server.Client.quit c)
  in
  let t0 = Unix.gettimeofday () in
  let threads = Array.init clients (fun k -> Thread.create (run_slice k) ()) in
  Array.iter Thread.join threads;
  let loop_s = Unix.gettimeofday () -. t0 in
  let served_rps = float_of_int mix_n /. loop_s in
  let all_lat = Array.concat (Array.to_list latencies) in
  Array.sort compare all_lat;
  let p50 = percentile_us all_lat 0.50
  and p95 = percentile_us all_lat 0.95
  and p99 = percentile_us all_lat 0.99 in
  (* cold vs result-cache hit: each cold arm LOADs new content (a fresh
     seed — byte-identical XML would be a digest-reuse no-op that keeps
     the warm result cache), so the first RUN after it is a real miss;
     the miss counter must rise once per cold run *)
  let c = Gql_server.Client.connect_unix sock in
  let q4 = List.find (fun (q : Gql_workload.Queries.server_query) -> q.sq_name = "Q4")
      Gql_workload.Queries.server_suite in
  let run_once () =
    let t = Unix.gettimeofday () in
    (match Gql_server.Client.run c ~doc:"greengrocer" (`Source q4.source) with
    | Ok _ -> ()
    | Error m -> failwith ("E12 cold/hit: " ^ m));
    (Unix.gettimeofday () -. t) *. 1000.0
  in
  let misses () =
    match Gql_server.Client.metrics c with
    | Ok (_, body) -> (
      match List.assoc_opt "result_cache_misses" (Gql_server.Metrics.parse_body body) with
      | Some v -> int_of_string v
      | None -> failwith "E12: no result_cache_misses in METRICS")
    | Error m -> failwith ("E12 metrics: " ^ m)
  in
  let n_cold = 3 in
  let misses_before = misses () in
  let colds =
    List.init n_cold (fun i ->
        load "greengrocer" (Gql_workload.Gen.greengrocer ~seed:(seed (630 + i)) 800);
        run_once ())
  in
  let cold_misses = misses () - misses_before in
  let hits = List.init 10 (fun _ -> run_once ()) in
  let cold_ms = List.fold_left min (List.hd colds) colds in
  let hit_ms = List.fold_left min (List.hd hits) hits in
  let cache_speedup = cold_ms /. hit_ms in
  (* exercise the deadline path once so timeouts are non-zero *)
  (match
     Gql_server.Client.run c ~doc:"greengrocer" ~deadline_ms:0.0 (`Source q4.source)
   with
  | Error _ -> ()
  | Ok _ -> failwith "E12: deadline=0 should time out");
  let server_metrics =
    match Gql_server.Client.metrics c with
    | Ok (_, body) -> Gql_server.Metrics.parse_body body
    | Error m -> failwith ("E12 metrics: " ^ m)
  in
  ignore (Gql_server.Client.quit c);
  Gql_server.Server.stop server;
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let m key = try List.assoc key server_metrics with Not_found -> "?" in
  row "request mix: %d requests over 4 docs (seed %d), %d client threads\n"
    mix_n !seed_base clients;
  row "%-28s  %12.1f req/s\n" "direct single-threaded" base_rps;
  row "%-28s  %12.1f req/s  (%.2fx)\n" "served closed-loop" served_rps
    (served_rps /. base_rps);
  row "client latency: p50 %.0f us  p95 %.0f us  p99 %.0f us\n" p50 p95 p99;
  row "server latency: p50 %s us  p95 %s us  p99 %s us  (%s reqs)\n"
    (m "latency_p50_us") (m "latency_p95_us") (m "latency_p99_us") (m "requests");
  row "result cache: cold %.2f ms  hit %.3f ms  (%.0fx);  hits=%s misses=%s  timeouts=%s\n"
    cold_ms hit_ms cache_speedup (m "result_cache_hits") (m "result_cache_misses")
    (m "timeouts");
  if served_rps < base_rps then
    row "WARNING: served throughput below single-threaded baseline\n";
  if cold_misses <> n_cold then
    failwith
      (Printf.sprintf "E12: %d cold runs raised result_cache_misses by %d"
         n_cold cold_misses);
  if cache_speedup < 10.0 then
    failwith
      (Printf.sprintf "E12: result-cache hit only %.1fx faster than a cold query"
         cache_speedup);
  let mi key = try int_of_string (m key) with _ -> -1 in
  record ~experiment:"e12"
    [ ("requests", J_int mix_n); ("clients", J_int clients);
      ("seed", J_int !seed_base);
      ("baseline_rps", J_num base_rps); ("served_rps", J_num served_rps);
      ("speedup_vs_baseline", J_num (served_rps /. base_rps));
      ("client_p50_us", J_num p50); ("client_p95_us", J_num p95);
      ("client_p99_us", J_num p99);
      ("server_p50_us", J_int (mi "latency_p50_us"));
      ("server_p95_us", J_int (mi "latency_p95_us"));
      ("server_p99_us", J_int (mi "latency_p99_us"));
      ("cold_ms", J_num cold_ms); ("cache_hit_ms", J_num hit_ms);
      ("cache_speedup", J_num cache_speedup); ("cold_misses", J_int cold_misses);
      ("result_cache_hits", J_int (mi "result_cache_hits"));
      ("result_cache_misses", J_int (mi "result_cache_misses"));
      ("timeouts", J_int (mi "timeouts")) ]

(* ------------------------------------------------------------------ *)
(* E13 — domain-parallel scaling                                        *)
(* ------------------------------------------------------------------ *)

(* Everything observable about a graph, in deterministic order — used
   to assert that a parallel fixpoint produced byte-for-byte the same
   derived graph as the sequential one. *)
let graph_digest (data : Gql_data.Graph.t) =
  let nodes =
    List.rev
      (Gql_graph.Digraph.fold_nodes
         (fun acc i kind -> (i, kind) :: acc)
         [] (Gql_data.Graph.digraph data))
  in
  let edges = ref [] in
  Gql_graph.Digraph.iter_edges
    (fun ~src ~dst (e : Gql_data.Graph.edge) -> edges := (src, dst, e) :: !edges)
    (Gql_data.Graph.digraph data);
  Digest.string (Marshal.to_string (nodes, List.rev !edges) [])

let e13 () =
  header "E13  domain-parallel scaling: 1/2/4/8 domains, byte-identical results";
  row "(host reports %d recommended domain(s); speedups above 1 core are\n\
      \ not expected there — the table records honest wall clock plus the\n\
      \ byte-identity check on every run)\n"
    (Domain.recommended_domain_count ());
  (* One workload per experiment class: E1's restaurant fixpoint, E5's
     index+ closure, E7's XML-GL join.  Each parallel run must produce
     exactly the sequential answer; [timed] re-runs the closure, so the
     identity check fires on every recorded repetition. *)
  let e1_base =
    Gql_workload.Gen.restaurants ~seed:(seed 71) ~menu_fraction:0.6 1000
  in
  let e1_prog =
    Gql_lang.Wglog_text.parse_program ~schema:Gql_wglog.Schema.restaurant_schema
      Gql_workload.Queries.q10_src
  in
  let e5_base =
    Gql_workload.Gen.hyperdocs ~seed:(seed 72) ~fanout:3 ~link_factor:1 400
  in
  let e5_prog =
    Gql_lang.Wglog_text.parse_program ~schema:Gql_wglog.Schema.hyperdoc_schema
      Gql_workload.Queries.q12_src
  in
  let e7_graph =
    fst (Gql_data.Codec.encode (Gql_workload.Gen.greengrocer ~seed:(seed 73) 1600))
  in
  let e7_query =
    (List.hd (Gql_core.Gql.parse_xmlgl Gql_workload.Queries.q4_src).Gql_xmlgl.Ast.rules)
      .Gql_xmlgl.Ast.query
  in
  let fixpoint base prog domains () =
    let g = Gql_data.Graph.copy base in
    let stats = Gql_wglog.Eval.run ~domains g prog in
    Digest.string
      (Marshal.to_string
         ( stats.Gql_wglog.Eval.rounds,
           stats.Gql_wglog.Eval.embeddings_found,
           stats.Gql_wglog.Eval.nodes_added,
           stats.Gql_wglog.Eval.edges_added )
         [])
    ^ graph_digest g
  in
  let join domains () =
    Digest.string
      (Marshal.to_string (Gql_xmlgl.Matching.run ~domains e7_graph e7_query) [])
  in
  let workloads =
    [ ("e1/q10-restaurants", fixpoint e1_base e1_prog);
      ("e5/q12-hyperdocs", fixpoint e5_base e5_prog);
      ("e7/q4-join", join) ]
  in
  row "%-20s  %8s  %10s  %10s  %10s  %9s\n" "workload" "domains" "median_ms"
    "min_ms" "identical" "speedup";
  List.iter
    (fun (name, run) ->
      let baseline = ref None in
      List.iter
        (fun domains ->
          let tm, digest = timed (fun () -> run domains ()) in
          let seq_digest, seq_ms =
            match !baseline with
            | None ->
              baseline := Some (digest, tm.median_ms);
              (digest, tm.median_ms)
            | Some b -> b
          in
          if digest <> seq_digest then
            failwith
              (Printf.sprintf "E13 %s: %d-domain result differs from sequential"
                 name domains);
          let speedup = seq_ms /. tm.median_ms in
          record ~experiment:"e13"
            ([ ("workload", J_str name); ("domains", J_int domains);
               ("identical", J_bool true); ("speedup", J_num speedup) ]
            @ j_timing tm);
          row "%-20s  %8d  %10.2f  %10.2f  %10s  %8.2fx\n" name domains
            tm.median_ms tm.min_ms "yes" speedup)
        [ 1; 2; 4; 8 ])
    workloads

(* ------------------------------------------------------------------ *)
(* E14 — the interned-symbol data path vs the PR4 baseline              *)
(* ------------------------------------------------------------------ *)

(* PR4 medians are read back from the committed BENCH_PR4.json so the
   speedup column is measured against the pre-rewrite trajectory, not a
   re-run (the old code no longer exists in this tree).  The extractor
   is a targeted scan, not a JSON parser: it finds the record by its
   literal anchor text and reads the float after the field key. *)
let find_sub (s : string) (sub : string) (from : int) : int option =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some (i + m)
    else go (i + 1)
  in
  go from

let float_after (s : string) (pos : int) : float =
  let n = String.length s in
  let j = ref pos in
  while
    !j < n
    && (match s.[!j] with
       | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
       | _ -> false)
  do
    incr j
  done;
  float_of_string (String.sub s pos (!j - pos))

let pr4_median ~(anchor : string) ~(field : string) : float option =
  let path = "BENCH_PR4.json" in
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    let contents = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match find_sub contents anchor 0 with
    | None -> None
    | Some p -> (
      match find_sub contents ("\"" ^ field ^ "\": {\"median_ms\": ") p with
      | None -> None
      | Some q -> Some (float_after contents q))
  end

let e14 () =
  header "E14  interned symbols + flat sorted sets vs the PR4 data path";
  (* The PR4 trajectory's indexed workloads, replayed on the rewritten
     path at 1 domain: the E11 point and label-join queries (150x400
     labelled graph) and the E5 index+ root fixpoint at 400 documents.
     Same seeds, same shapes — only the data path changed. *)
  row "%-16s  %8s  %10s  %10s  %9s  %12s\n" "workload" "result" "ms" "pr4_ms"
    "speedup" "minor_Mw";
  let measure name f baseline =
    let tm, result = timed f in
    let speedup = Option.map (fun b -> b /. tm.median_ms) baseline in
    record ~experiment:"e14"
      ([ ("workload", J_str name); ("result", J_int result);
         ("domains", J_int 1) ]
      @ j_timing tm
      @ (match baseline with
        | Some b ->
          [ ("pr4_median_ms", J_num b);
            ("speedup_vs_pr4", J_num (Option.get speedup)) ]
        | None -> []));
    row "%-16s  %8d  %10.3f  %10.3f  %8.1fx  %12.2f\n" name result tm.median_ms
      (Option.value baseline ~default:Float.nan)
      (Option.value speedup ~default:Float.nan)
      (tm.minor_words /. 1e6)
  in
  (* The 120k-node graph lives only for this block: it is dropped (and
     compacted away) before the fixpoint workload so the fixpoint's GC
     behaviour is measured on its own heap. *)
  begin
    let data =
      Gql_workload.Gen.labelled_graph ~labels:150 ~per_label:400 ~degree:3 ()
    in
    let idx = Gql_data.Index.build data in
    let wg_query build =
      let cq = Gql_wglog.Eval.compile_query build in
      fun () ->
        List.length
          (Gql_wglog.Eval.query_embeddings ~index:idx ~domains:1 data build cq)
    in
    let point =
      let open Gql_wglog.Ast.Build in
      let b = create () in
      let r = entity b "L40" in
      let v = const b (Gql_data.Value.string "k-16123") in
      edge b ~label:"key" r v;
      finish b
    in
    let join =
      let open Gql_wglog.Ast.Build in
      let b = create () in
      let a = entity b "L7" in
      let c = entity b "L8" in
      edge b ~label:"rel" a c;
      finish b
    in
    measure "e11-point" (wg_query point)
      (pr4_median ~anchor:"\"experiment\": \"e11\", \"query\": \"point\""
         ~field:"indexed");
    measure "e11-label-join" (wg_query join)
      (pr4_median ~anchor:"\"experiment\": \"e11\", \"query\": \"label-join\""
         ~field:"indexed")
  end;
  Gc.compact ();
  let root_fixpoint () =
    let g =
      Gql_workload.Gen.hyperdocs ~seed:(seed 44) ~fanout:3 ~link_factor:1 400
    in
    let p =
      Gql_lang.Wglog_text.parse_program ~schema:Gql_wglog.Schema.hyperdoc_schema
        Gql_workload.Queries.q12_src
    in
    (Gql_wglog.Eval.run ~domains:1 g p).Gql_wglog.Eval.edges_added
  in
  measure "e5-root-400" root_fixpoint
    (pr4_median ~anchor:"\"experiment\": \"e5\", \"docs\": 400" ~field:"root")

(* ------------------------------------------------------------------ *)
(* E13v2 — the pooled, work-gated scheduler                             *)
(* ------------------------------------------------------------------ *)

let e13v2 () =
  header "E13v2  pooled scheduler: gated small fixtures, million-node scaling";
  let host = Domain.recommended_domain_count () in
  let cutoff = Gql_graph.Par.cutoff () in
  row
    "(host reports %d domain(s); par cutoff = %d work units.  The small\n\
    \ fixtures sit below the cutoff, so every domain count runs the same\n\
    \ sequential code — their speedup column is the price of the gate and\n\
    \ must hold ~1.0x.  The large fixtures clear the cutoff and go through\n\
    \ the worker pool; real scaling needs real cores, so on a 1-core host\n\
    \ the table records honest wall clock while the byte-identity check\n\
    \ still fires on every run.  Speedups use min_ms — the low-noise\n\
    \ floor — because the gate comparison is a same-code-path ratio.)\n"
    host cutoff;
  row "%-22s  %6s  %8s  %10s  %10s  %5s  %8s  %6s  %6s  %7s\n" "workload"
    "class" "domains" "median_ms" "min_ms" "ident" "speedup" "jobs" "chunks"
    "stolen";
  let sweep ~klass ?repeat name run =
    let baseline = ref None in
    List.iter
      (fun domains ->
        (* a compacted heap before every point: the sweep compares
           domain counts, and carried-over garbage from earlier points
           would otherwise drift the floor between them *)
        Gc.compact ();
        let s0 = Gql_graph.Par.stats () in
        let tm, digest = timed ?repeat (fun () -> run domains) in
        let ds =
          Gql_graph.Par.stats_diff ~before:s0 (Gql_graph.Par.stats ())
        in
        let seq_digest, seq_min =
          match !baseline with
          | None ->
            baseline := Some (digest, tm.min_ms);
            (digest, tm.min_ms)
          | Some b -> b
        in
        if digest <> seq_digest then
          failwith
            (Printf.sprintf
               "E13v2 %s: %d-domain result differs from sequential" name
               domains);
        let speedup = seq_min /. tm.min_ms in
        record ~experiment:"e13v2"
          ([ ("workload", J_str name); ("class", J_str klass);
             ("domains", J_int domains); ("identical", J_bool true);
             ("speedup", J_num speedup); ("cutoff", J_int cutoff);
             ("host_domains", J_int host);
             ("par_jobs", J_int ds.Gql_graph.Par.jobs);
             ("par_chunks", J_int ds.Gql_graph.Par.chunks);
             ("par_chunks_stolen", J_int ds.Gql_graph.Par.stolen);
             ("par_seq_below_cutoff", J_int ds.Gql_graph.Par.seq_below_cutoff);
             ("par_seq_nested", J_int ds.Gql_graph.Par.seq_nested);
             ("par_seq_solo", J_int ds.Gql_graph.Par.seq_solo);
             ("par_workers_spawned", J_int ds.Gql_graph.Par.workers_spawned);
             ("par_spawn_failures", J_int ds.Gql_graph.Par.spawn_failures) ]
          @ j_timing tm);
        row "%-22s  %6s  %8d  %10.2f  %10.2f  %5s  %7.2fx  %6d  %6d  %7d\n"
          name klass domains tm.median_ms tm.min_ms "yes" speedup
          ds.Gql_graph.Par.jobs ds.Gql_graph.Par.chunks
          ds.Gql_graph.Par.stolen)
      [ 1; 2; 4; 8 ]
  in
  (* -- the three E13 small fixtures, same seeds: the gate must keep
     them sequential at every domain count ------------------------------ *)
  begin
    let e1_base =
      Gql_workload.Gen.restaurants ~seed:(seed 71) ~menu_fraction:0.6 1000
    in
    let e1_prog =
      Gql_lang.Wglog_text.parse_program
        ~schema:Gql_wglog.Schema.restaurant_schema Gql_workload.Queries.q10_src
    in
    let e5_base =
      Gql_workload.Gen.hyperdocs ~seed:(seed 72) ~fanout:3 ~link_factor:1 400
    in
    let e5_prog =
      Gql_lang.Wglog_text.parse_program
        ~schema:Gql_wglog.Schema.hyperdoc_schema Gql_workload.Queries.q12_src
    in
    let e7_graph =
      fst
        (Gql_data.Codec.encode (Gql_workload.Gen.greengrocer ~seed:(seed 73) 1600))
    in
    let e7_query =
      (List.hd
         (Gql_core.Gql.parse_xmlgl Gql_workload.Queries.q4_src).Gql_xmlgl.Ast.rules)
        .Gql_xmlgl.Ast.query
    in
    let fixpoint base prog domains =
      let g = Gql_data.Graph.copy base in
      let stats = Gql_wglog.Eval.run ~domains g prog in
      Digest.string
        (Marshal.to_string
           ( stats.Gql_wglog.Eval.rounds,
             stats.Gql_wglog.Eval.embeddings_found,
             stats.Gql_wglog.Eval.nodes_added,
             stats.Gql_wglog.Eval.edges_added )
           [])
      ^ graph_digest g
    in
    (* extra repetitions: the small points are a few ms each, and their
       speedup column is a same-code-path ratio that must not wobble *)
    sweep ~klass:"small" ~repeat:9 "e1/q10-restaurants" (fixpoint e1_base e1_prog);
    sweep ~klass:"small" ~repeat:9 "e5/q12-hyperdocs" (fixpoint e5_base e5_prog);
    sweep ~klass:"small" ~repeat:9 "e7/q4-join" (fun domains ->
        Digest.string
          (Marshal.to_string
             (Gql_xmlgl.Matching.run ~domains e7_graph e7_query) []))
  end;
  Gc.compact ();
  (* -- the million-node fixtures: wide, deep, skewed -------------------- *)
  (* embedding digests fold a hash in enumeration order instead of
     marshalling million-element lists; count + hash pin both the set
     and the order *)
  let goal_digest g rule domains =
    let embs = Gql_wglog.Eval.goal ~domains g rule in
    let h =
      List.fold_left
        (fun acc emb ->
          Array.fold_left (fun a x -> (a * 1_000_003) lxor x) acc emb)
        17 embs
    in
    Printf.sprintf "%d:%d" (List.length embs) h
  in
  let rule_of schema src =
    List.hd (Gql_lang.Wglog_text.parse_program ~schema src).Gql_wglog.Ast.rules
  in
  List.iter
    (fun (name, gen, src) ->
      let g = gen () in
      let rule = rule_of Gql_wglog.Schema.scale_schema src in
      row "%-22s  (%d nodes)\n" name (Gql_data.Graph.n_nodes g);
      sweep ~klass:"large" name (goal_digest g rule);
      Gc.compact ())
    [ ("wide-1M", (fun () -> Gql_workload.Gen.wide_graph ~seed:(seed 74) ~hubs:1024 1_000_000),
       Gql_workload.Queries.q13_src);
      ("deep-1M", (fun () -> Gql_workload.Gen.deep_graph ~seed:(seed 75) ~chains:2048 1_000_000),
       Gql_workload.Queries.q14_src);
      ("skewed-1M", (fun () -> Gql_workload.Gen.skewed_graph ~seed:(seed 76) ~groups:512 1_000_000),
       Gql_workload.Queries.q15_src) ]

(* ------------------------------------------------------------------ *)
(* E15 — the planner against the Homo matcher                          *)
(* ------------------------------------------------------------------ *)

let e15 () =
  header "E15  planner: algebra rows vs the Homo matcher, estimates, crosses";
  row
    "(each query is planned once and its execution timed — the\n\
    \ plan-cache deployment model.  Every point checks the algebra's row\n\
    \ count against the Homo matcher over the same index and records the\n\
    \ plan's own row/cost estimates and whether it contains a cartesian\n\
    \ product.  Fixtures: E11's 120k-node labelled graph, the E13v2\n\
    \ million-node trio and the nine XML-GL suite queries at 400.)\n";
  row "%-14s  %9s  %9s  %6s  %10s  %10s  %12s\n" "workload" "rows"
    "est_rows" "cross" "median_ms" "min_ms" "est_cost";
  let point ~name ~homo_rows ~plan execute =
    let tm, rows = timed ~repeat:9 execute in
    if rows <> homo_rows then
      failwith
        (Printf.sprintf "E15 %s: algebra returned %d rows, Homo %d" name rows
           homo_rows);
    let cross = Gql_algebra.Plan.has_cross plan in
    let est_rows, est_cost =
      match Gql_algebra.Plan.root_est plan with
      | Some e -> (e.Gql_algebra.Plan.est_rows, e.Gql_algebra.Plan.est_cost)
      | None -> (Float.nan, Float.nan)
    in
    record ~experiment:"e15"
      ([ ("workload", J_str name); ("rows", J_int rows);
         ("homo_rows", J_int homo_rows); ("has_cross", J_bool cross);
         ("plan_est_rows", J_num est_rows); ("plan_est_cost", J_num est_cost) ]
      @ j_timing tm);
    row "%-14s  %9d  %9.3g  %6s  %10.2f  %10.2f  %12.3g\n" name rows est_rows
      (if cross then "yes" else "no")
      tm.median_ms tm.min_ms est_cost
  in
  let match_point ~name ~data ~idx ~src =
    let c = Gql_match.Compile.compile (Gql_match.Parse.parse src) in
    let job = Gql_match.Compile.job ~index:idx c in
    let plan = Gql_algebra.Planner.build data job in
    let homo_rows =
      List.length (Gql_match.Eval.bindings ~index:idx ~domains:1 data c)
    in
    point ~name ~homo_rows ~plan (fun () ->
        List.length
          (Gql_algebra.Exec.run ?provider:job.Gql_algebra.Planner.provider
             ~domains:1 data c.Gql_match.Compile.pattern plan))
  in
  (* -- E11's 120k-node labelled graph --------------------------------- *)
  begin
    let data =
      Gql_workload.Gen.labelled_graph ~labels:150 ~per_label:400 ~degree:3 ()
    in
    let idx = Gql_data.Index.build data in
    List.iter
      (fun (name, src) -> match_point ~name ~data ~idx ~src)
      [ ( "e11-point",
          "MATCH (r:L40)-[:key]->(v)\nWHERE v.value = \"k-16123\"\nRETURN r\n"
        );
        ("e11-join", "MATCH (a:L7)-[:rel]->(b:L8)\nRETURN a, b\n");
        ( "e11-tri",
          "MATCH (a:L7)-[:rel]->(b:L8)<-[:rel]-(c:L7)\nRETURN a, b, c\n" ) ]
  end;
  Gc.compact ();
  (* -- the E13v2 million-node fixtures -------------------------------- *)
  List.iter
    (fun (name, gen, src) ->
      let data = gen () in
      let idx = Gql_data.Index.build data in
      row "%-14s  (%d nodes)\n" name (Gql_data.Graph.n_nodes data);
      match_point ~name ~data ~idx ~src;
      Gc.compact ())
    [ ( "wide-1M",
        (fun () -> Gql_workload.Gen.wide_graph ~seed:(seed 74) ~hubs:1024 1_000_000),
        "MATCH (h:Hub)-[:rel]->(i:Item)\nRETURN h, i\n" );
      ( "deep-1M",
        (fun () -> Gql_workload.Gen.deep_graph ~seed:(seed 75) ~chains:2048 1_000_000),
        "MATCH (h:Head)-[:next+]->(t:Cell)\nRETURN h, t\n" );
      ( "skewed-1M",
        (fun () -> Gql_workload.Gen.skewed_graph ~seed:(seed 76) ~groups:512 1_000_000),
        "MATCH (g:Group)-[:member]->(m:Member)\nRETURN g, m\n" ) ];
  (* -- the nine XML-GL suite queries (indexed, as served) ------------- *)
  let dbs =
    [ (`Bibliography, Gql_core.Gql.of_document (Gql_workload.Gen.bibliography ~seed:(seed 48) 400));
      (`Greengrocer, Gql_core.Gql.of_document (Gql_workload.Gen.greengrocer ~seed:(seed 48) 400));
      (`People, Gql_core.Gql.of_document (Gql_workload.Gen.people ~seed:(seed 48) 400)) ]
  in
  List.iter
    (fun (e : Gql_workload.Queries.entry) ->
      match e.kind, List.assoc_opt e.workload dbs with
      | `Xmlgl p, Some db ->
        let q = (List.hd (Lazy.force p).Gql_xmlgl.Ast.rules).Gql_xmlgl.Ast.query in
        let data = db.Gql_core.Gql.graph and index = Gql_core.Gql.index db in
        let compiled = Gql_xmlgl.Matching.compile ~index data q in
        let job = Gql_algebra.Planner.job_of_xmlgl ~index compiled in
        let plan = Gql_algebra.Planner.build data job in
        let homo_rows =
          List.length (Gql_xmlgl.Matching.run ~index ~domains:1 data q)
        in
        point ~name:("xmlgl-" ^ e.name) ~homo_rows ~plan (fun () ->
            List.length
              (Gql_algebra.Exec.run ?provider:job.Gql_algebra.Planner.provider
                 ~domains:1 data compiled.Gql_xmlgl.Matching.pattern plan))
      | _ -> ())
    Gql_workload.Queries.suite

(* ------------------------------------------------------------------ *)
(* E16 — flat product-automaton path engine                            *)
(* ------------------------------------------------------------------ *)

(* Field lookup in the committed PR8 trajectory (flat numeric fields of
   an e13v2-style record, not the nested [field: {median_ms: ..}] shape
   pr4_median reads). *)
let pr8_field ~(anchor : string) ~(field : string) : float option =
  let path = "BENCH_PR8.json" in
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    let contents = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match find_sub contents anchor 0 with
    | None -> None
    | Some p -> (
      match find_sub contents ("\"" ^ field ^ "\": ") p with
      | None -> None
      | Some q -> Some (float_after contents q))
  end

let e16 () =
  let module Rp = Gql_graph.Regpath in
  header "E16  flat product-automaton path engine vs subset-construction BFS";
  row
    "(Micro: per-head next+ closure over a 200k-node chain fixture, the\n\
    \ retained subset-construction BFS vs the flat product-automaton\n\
    \ search on the same frozen snapshot, byte-identical result lists\n\
    \ asserted before timing; batch = one scratch claim for all heads.\n\
    \ Sweeps: the path-heavy million-node WG-Log goals at 1/2/4 domains\n\
    \ with the engine's own counters, digest-checked across domain\n\
    \ counts, minor-heap words compared against the committed PR8\n\
    \ trajectory where the same fixture appears.)\n";
  (* -- micro ----------------------------------------------------------- *)
  begin
    let data = Gql_workload.Gen.deep_graph ~seed:(seed 81) ~chains:256 200_000 in
    let csr = Gql_graph.Csr.freeze (Gql_data.Graph.digraph data) in
    let heads = ref [] in
    Gql_graph.Digraph.iter_nodes
      (fun i kind ->
        match kind with
        | Gql_data.Graph.Complex "Head" -> heads := i :: !heads
        | _ -> ())
      (Gql_data.Graph.digraph data);
    let heads = Array.of_list (List.rev !heads) in
    let rp =
      Rp.compile_classified ~plane_hint:Gql_data.Index.plane_rel
        ~classify:(fun lbl -> if lbl = "*" then Rp.Lany else Rp.Lname lbl)
        (fun lbl (de : Gql_data.Graph.edge) ->
          de.Gql_data.Graph.kind <> Gql_data.Graph.Attribute
          && (lbl = "*" || de.Gql_data.Graph.name = lbl))
        Gql_regex.Syntax.(plus (sym "next"))
    in
    (* the deployed snapshot path: interned symbol plane + specialised
       automaton, exactly what Index.nav_path runs *)
    let interner = Hashtbl.create 8 in
    let intern name =
      match Hashtbl.find_opt interner name with
      | Some i -> i
      | None ->
        let i = Hashtbl.length interner in
        Hashtbl.add interner name i;
        i
    in
    let plane =
      Gql_graph.Csr.map_out_labels
        (fun (de : Gql_data.Graph.edge) ->
          if de.Gql_data.Graph.kind = Gql_data.Graph.Attribute then -1
          else intern de.Gql_data.Graph.name)
        csr
    in
    let spec = Rp.specialise rp ~intern in
    let hash_list acc l =
      List.fold_left (fun a x -> (a * 1_000_003) lxor x) acc l
    in
    let digest_over f =
      Array.fold_left (fun acc h -> hash_list acc (f h)) 17 heads
    in
    let run_plane h =
      Gql_graph.Iset.to_list (Rp.reachable_plane rp spec csr ~plane h)
    in
    (* identity first: all four engines must agree head-for-head *)
    let batch0 = Rp.reachable_frozen_batch rp csr heads in
    Array.iteri
      (fun i h ->
        let s = Rp.reachable_subset_frozen rp csr h in
        let f = Rp.reachable_frozen rp csr h in
        if s <> f || f <> Gql_graph.Iset.to_list batch0.(i) || f <> run_plane h
        then failwith "E16 micro: engines disagree")
      heads;
    let sub_tm, sub_digest =
      timed ~repeat:5 (fun () -> digest_over (Rp.reachable_subset_frozen rp csr))
    in
    let pred_tm, pred_digest =
      timed ~repeat:5 (fun () -> digest_over (Rp.reachable_frozen rp csr))
    in
    let s0 = Rp.stats () in
    let flat_tm, flat_digest =
      timed ~repeat:5 (fun () -> digest_over run_plane)
    in
    let ds = Rp.stats_diff ~before:s0 (Rp.stats ()) in
    let batch_tm, batch_digest =
      timed ~repeat:5 (fun () ->
          Array.fold_left
            (fun acc s -> hash_list acc (Gql_graph.Iset.to_list s))
            17
            (Rp.reachable_frozen_batch rp csr heads))
    in
    if
      sub_digest <> flat_digest || flat_digest <> batch_digest
      || pred_digest <> flat_digest
    then failwith "E16 micro: timed digests disagree";
    let speedup_flat = sub_tm.min_ms /. flat_tm.min_ms in
    let speedup_pred = sub_tm.min_ms /. pred_tm.min_ms in
    let speedup_batch = sub_tm.min_ms /. batch_tm.min_ms in
    record ~experiment:"e16"
      [ ("workload", J_str "regpath-micro-next+");
        ("heads", J_int (Array.length heads));
        ("nodes", J_int (Gql_data.Graph.n_nodes data));
        ("identical", J_bool true);
        ("subset", J_obj (j_timing sub_tm));
        ("flat", J_obj (j_timing flat_tm));
        ("flat_pred", J_obj (j_timing pred_tm));
        ("batch", J_obj (j_timing batch_tm));
        ("speedup_flat", J_num speedup_flat);
        ("speedup_pred", J_num speedup_pred);
        ("speedup_batch", J_num speedup_batch);
        ("path_searches", J_int ds.Rp.searches);
        ("path_frontier_peak", J_int ds.Rp.frontier_peak);
        ("path_scratch_reuses", J_int ds.Rp.scratch_reuses) ];
    row "%-22s  %8s  %10s  %10s  %9s  %11s\n" "engine" "heads" "median_ms"
      "min_ms" "speedup" "minor_Mw";
    row "%-22s  %8d  %10.2f  %10.2f  %9s  %11.2f\n" "subset-BFS"
      (Array.length heads) sub_tm.median_ms sub_tm.min_ms "1.00x"
      (sub_tm.minor_words /. 1e6);
    row "%-22s  %8d  %10.2f  %10.2f  %8.2fx  %11.2f\n" "flat-pred"
      (Array.length heads) pred_tm.median_ms pred_tm.min_ms speedup_pred
      (pred_tm.minor_words /. 1e6);
    row "%-22s  %8d  %10.2f  %10.2f  %8.2fx  %11.2f\n" "flat-plane"
      (Array.length heads) flat_tm.median_ms flat_tm.min_ms speedup_flat
      (flat_tm.minor_words /. 1e6);
    row "%-22s  %8d  %10.2f  %10.2f  %8.2fx  %11.2f\n" "flat-batch"
      (Array.length heads) batch_tm.median_ms batch_tm.min_ms speedup_batch
      (batch_tm.minor_words /. 1e6)
  end;
  Gc.compact ();
  (* -- million-node path sweeps ---------------------------------------- *)
  row "\n%-22s  %8s  %10s  %10s  %5s  %8s  %9s  %10s\n" "workload" "domains"
    "median_ms" "min_ms" "ident" "speedup" "searches" "minor_Mw";
  let goal_digest g rule domains =
    let embs = Gql_wglog.Eval.goal ~domains g rule in
    let h =
      List.fold_left
        (fun acc emb ->
          Array.fold_left (fun a x -> (a * 1_000_003) lxor x) acc emb)
        17 embs
    in
    Printf.sprintf "%d:%d" (List.length embs) h
  in
  let rule_of src =
    List.hd
      (Gql_lang.Wglog_text.parse_program ~schema:Gql_wglog.Schema.scale_schema
         src)
        .Gql_wglog.Ast.rules
  in
  let q_skew_path_src =
    (* skewed-1M variant of q15 with the member edge starred: the
       pathedge rides the same skew the scheduler has to absorb *)
    "wglog\nrule\n  node g Group\n  node m Member\n  pathedge g member+ m\nend\n"
  in
  List.iter
    (fun (name, pr8_workload, gen, src) ->
      let g = gen () in
      let rule = rule_of src in
      row "%-22s  (%d nodes)\n" name (Gql_data.Graph.n_nodes g);
      let baseline = ref None in
      List.iter
        (fun domains ->
          Gc.compact ();
          let s0 = Rp.stats () in
          let tm, digest = timed (fun () -> goal_digest g rule domains) in
          let ds = Rp.stats_diff ~before:s0 (Rp.stats ()) in
          let seq_digest, seq_min =
            match !baseline with
            | None ->
              baseline := Some (digest, tm.min_ms);
              (digest, tm.min_ms)
            | Some b -> b
          in
          if digest <> seq_digest then
            failwith
              (Printf.sprintf
                 "E16 %s: %d-domain result differs from sequential" name
                 domains);
          let speedup = seq_min /. tm.min_ms in
          let pr8 =
            if domains = 1 then
              match pr8_workload with
              | None -> []
              | Some w -> (
                match
                  pr8_field
                    ~anchor:
                      (Printf.sprintf
                         "\"workload\": \"%s\", \"class\": \"large\", \
                          \"domains\": 1, \"identical\"" w)
                    ~field:"minor_words"
                with
                | Some mw ->
                  [ ("pr8_minor_words", J_num mw);
                    ("minor_words_ratio", J_num (tm.minor_words /. mw)) ]
                | None -> [])
            else []
          in
          record ~experiment:"e16"
            ([ ("workload", J_str name); ("domains", J_int domains);
               ("identical", J_bool true); ("speedup", J_num speedup);
               ("path_compiles", J_int ds.Rp.compiles);
               ("path_specialisations", J_int ds.Rp.specialisations);
               ("path_searches", J_int ds.Rp.searches);
               ("path_memo_hits", J_int ds.Rp.memo_hits);
               ("path_memo_misses", J_int ds.Rp.memo_misses);
               ("path_frontier_peak", J_int ds.Rp.frontier_peak);
               ("path_scratch_reuses", J_int ds.Rp.scratch_reuses) ]
            @ j_timing tm @ pr8);
          row "%-22s  %8d  %10.2f  %10.2f  %5s  %7.2fx  %9d  %10.2f\n" name
            domains tm.median_ms tm.min_ms "yes" speedup ds.Rp.searches
            (tm.minor_words /. 1e6))
        [ 1; 2; 4 ];
      Gc.compact ())
    [ ( "deep-1M-next+",
        Some "deep-1M",
        (fun () ->
          Gql_workload.Gen.deep_graph ~seed:(seed 75) ~chains:2048 1_000_000),
        Gql_workload.Queries.q14_src );
      ( "skewed-1M-member+",
        None,
        (fun () ->
          Gql_workload.Gen.skewed_graph ~seed:(seed 76) ~groups:512 1_000_000),
        q_skew_path_src ) ]

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                             *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let xml = Gql_xml.Printer.to_string (Gql_workload.Gen.bibliography ~seed:(seed 50) 100) in
  let db = Gql_core.Gql.load_xml_string xml in
  let q2 = Gql_core.Gql.parse_xmlgl Gql_workload.Queries.q2_src in
  let q2_query = (List.hd q2.Gql_xmlgl.Ast.rules).Gql_xmlgl.Ast.query in
  let regex = Gql_regex.Chre.compile "[hH]olland|Van.*" in
  let idx = Lazy.force db.Gql_core.Gql.xpath_index in
  let xp = Gql_xpath.Parse.expr Gql_workload.Queries.q2_xpath in
  let tests =
    [
      Test.make ~name:"xml-parse-100-books"
        (Staged.stage (fun () -> ignore (Gql_xml.Parser.parse_document xml)));
      Test.make ~name:"xmlgl-match-q2"
        (Staged.stage (fun () ->
             ignore (Gql_xmlgl.Matching.run db.Gql_core.Gql.graph q2_query)));
      Test.make ~name:"xpath-eval-q2"
        (Staged.stage (fun () -> ignore (Gql_xpath.Eval.select idx xp)));
      Test.make ~name:"regex-search"
        (Staged.stage (fun () ->
             ignore (Gql_regex.Chre.search regex "sold in Holland by VanDam")));
      Test.make ~name:"rule-parse"
        (Staged.stage (fun () ->
             ignore (Gql_lang.Xmlgl_text.parse_program Gql_workload.Queries.q4_src)));
    ]
  in
  header "microbenchmarks (ns/run, OLS on monotonic clock)";
  List.iter
    (fun test ->
      let instances = Toolkit.Instance.[ monotonic_clock ] in
      let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
      let results = Benchmark.all cfg instances test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
      in
      let a = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name res ->
          match Analyze.OLS.estimates res with
          | Some [ est ] -> row "%-28s  %12.1f ns/run\n" name est
          | Some _ | None -> row "%-28s  (no estimate)\n" name)
        a)
    tests

(* ------------------------------------------------------------------ *)
(* E17 — the persistent snapshot store                                  *)
(* ------------------------------------------------------------------ *)

let e17 () =
  header "E17  snapshot store: mapped load vs re-freezing the index";
  row
    "(save serialises the frozen planes once; load maps the file back,\n\
    \ blitting the hot planes and wiring the cold lanes and the mutable\n\
    \ graph lazily.  'refreeze' is Index.build on the in-memory graph —\n\
    \ what a process start pays without the store; 'validate' is the\n\
    \ zero-copy open that checks every checksum without materialising;\n\
    \ 'thaw' is the lazy Digraph force the first scan-route query pays.\n\
    \ ident compares a q13-style goal digest frozen-vs-loaded; speedup\n\
    \ is refreeze/load on min_ms.)\n";
  row "%-12s  %10s  %9s  %11s  %11s  %9s  %9s  %5s  %8s\n" "workload"
    "refreeze_ms" "save_ms" "bytes" "validate_ms" "load_ms" "thaw_ms" "ident"
    "speedup";
  let goal_digest ~index g rule =
    let embs = Gql_wglog.Eval.goal ~index ~domains:1 g rule in
    let h =
      List.fold_left
        (fun acc emb ->
          Array.fold_left (fun a x -> (a * 1_000_003) lxor x) acc emb)
        17 embs
    in
    Printf.sprintf "%d:%d" (List.length embs) h
  in
  (* Both sides of the ratio allocate ~200 MB per run, so the shared
     [timed] harness — which keeps every run's result alive — would
     charge each run with collecting its predecessors' garbage and
     compress the ratio arbitrarily.  Here every run starts from a
     compacted heap with the previous result dropped: the columns time
     the phase, not the GC echo of the phase before it. *)
  let timed_gc ?(repeat = 3) f =
    let keep = ref None in
    let times = ref [] in
    for i = 0 to repeat do
      keep := None;
      Gc.compact ();
      let t0 = Unix.gettimeofday () in
      let r = f () in
      let dt = (Unix.gettimeofday () -. t0) *. 1000.0 in
      keep := Some r;
      if i > 0 then times := dt :: !times (* run 0 is the warm-up *)
    done;
    let times = List.sort compare !times in
    ( { median_ms = List.nth times (repeat / 2); min_ms = List.hd times;
        minor_words = 0.0; major_words = 0.0 },
      Option.get !keep )
  in
  List.iter
    (fun (name, gen, src) ->
      let g = gen () in
      let rule =
        List.hd
          (Gql_lang.Wglog_text.parse_program
             ~schema:Gql_wglog.Schema.scale_schema src)
          .Gql_wglog.Ast.rules
      in
      Gc.compact ();
      let tm_freeze, idx = timed_gc (fun () -> Gql_data.Index.build g) in
      let path = Filename.temp_file "gql-bench" ".snap" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let tm_save, bytes = timed_gc (fun () -> Gql_data.Store.save ~path idx) in
          let tm_validate, _ = timed_gc (fun () -> Gql_data.Store.validate path) in
          let tm_load, (lg, lidx) =
            timed_gc (fun () -> Gql_data.Store.load ~path)
          in
          let t0 = Unix.gettimeofday () in
          ignore (Gql_data.Graph.digraph lg);
          let thaw_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
          let identical =
            goal_digest ~index:idx g rule = goal_digest ~index:lidx lg rule
          in
          if not identical then
            failwith
              (Printf.sprintf "E17 %s: loaded snapshot answers differently"
                 name);
          let speedup = tm_freeze.min_ms /. tm_load.min_ms in
          record ~experiment:"e17"
            ([ ("workload", J_str name);
               ("refreeze_ms", J_num tm_freeze.median_ms);
               ("refreeze_min_ms", J_num tm_freeze.min_ms);
               ("snapshot_save_ms", J_num tm_save.median_ms);
               ("snapshot_bytes", J_int bytes);
               ("validate_ms", J_num tm_validate.median_ms);
               ("snapshot_load_ms", J_num tm_load.median_ms);
               ("snapshot_load_min_ms", J_num tm_load.min_ms);
               ("thaw_ms", J_num thaw_ms);
               ("identical", J_bool identical);
               ("speedup", J_num speedup);
               ("median_ms", J_num tm_load.median_ms);
               ("min_ms", J_num tm_load.min_ms) ]);
          row "%-12s  %11.1f  %9.1f  %11d  %11.2f  %9.1f  %9.1f  %5s  %7.1fx\n"
            name tm_freeze.median_ms tm_save.median_ms bytes
            tm_validate.median_ms tm_load.median_ms thaw_ms
            (if identical then "yes" else "NO") speedup))
    [ ("wide-1M",
       (fun () -> Gql_workload.Gen.wide_graph ~seed:(seed 74) ~hubs:1024 1_000_000),
       Gql_workload.Queries.q13_src);
      ("deep-1M",
       (fun () -> Gql_workload.Gen.deep_graph ~seed:(seed 75) ~chains:2048 1_000_000),
       Gql_workload.Queries.q14_src);
      ("skewed-1M",
       (fun () -> Gql_workload.Gen.skewed_graph ~seed:(seed 76) ~groups:512 1_000_000),
       Gql_workload.Queries.q15_src) ]

(* ------------------------------------------------------------------ *)

let all =
  [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e10", e10); ("e11", e11);
    ("e12", e12); ("e13", e13); ("e14", e14); ("e13v2", e13v2); ("e15", e15);
    ("e16", e16); ("e17", e17) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json = ref None in
  (* --seed N: shift every generator seed (see [seed_base]) *)
  let rec strip = function
    | "--seed" :: n :: rest ->
      (match int_of_string_opt n with
      | Some s -> seed_base := s
      | None -> Printf.eprintf "bad --seed %s (integer expected)\n" n);
      strip rest
    | "--domains" :: n :: rest ->
      (* default domain count for every evaluation in the run; E13
         still sweeps its own explicit 1/2/4/8 regardless *)
      (match int_of_string_opt n with
      | Some d -> Gql_graph.Par.set_default d
      | None -> Printf.eprintf "bad --domains %s (integer expected)\n" n);
      strip rest
    | "--json" :: path :: rest when not (String.starts_with ~prefix:"-" path) ->
      json := Some path;
      strip rest
    | "--json" :: _ ->
      prerr_endline "--json needs an output path";
      exit 2
    | a :: rest -> a :: strip rest
    | [] -> []
  in
  let args = strip args in
  (match args with
  | [] -> List.iter (fun (_, f) -> f ()) all
  | [ "micro" ] -> micro ()
  | names ->
    let unknown =
      List.filter
        (fun n -> not (List.mem_assoc (String.lowercase_ascii n) all))
        names
    in
    if unknown <> [] then begin
      Printf.eprintf "unknown experiment %s (known: %s, micro)\n"
        (String.concat ", " unknown)
        (String.concat " " (List.map fst all));
      exit 2
    end;
    List.iter (fun name -> (List.assoc (String.lowercase_ascii name) all) ()) names);
  Option.iter write_json !json
