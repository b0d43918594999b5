(* The query service, proven against direct evaluation.

   The load-bearing property: a RUN response body must be *byte
   identical* to what direct `Gql_xmlgl.Engine` / `Gql_wglog.Eval`
   evaluation over the same snapshot produces — cold, cached, over a
   socket, and under concurrent clients on a multi-domain worker pool.
   Everything else (protocol framing, caches, metrics, deadlines) is
   exercised around that invariant. *)

open Gql_server

let check = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* --- the served corpus -------------------------------------------------- *)

let doc_of = function
  | "bibliography" -> Gql_workload.Gen.bibliography ~seed:81 40
  | "people" -> Gql_workload.Gen.people ~seed:82 60
  | "greengrocer" -> Gql_workload.Gen.greengrocer ~seed:83 80
  | d -> failwith ("no test doc " ^ d)

let restaurant_graph () = Gql_workload.Gen.restaurants ~seed:84 50

let new_server ?(workers = 4) ?(result_cache = 256) ?default_deadline_ms () =
  let config =
    {
      Server.default_config with
      workers = Some workers;
      result_cache;
      default_deadline_ms;
    }
  in
  let server = Server.create ~config () in
  let reg = Server.registry server in
  List.iter
    (fun name ->
      match
        Registry.load_xml reg ~name
          (Gql_xml.Printer.to_string (doc_of name))
      with
      | Ok _ -> ()
      | Error m -> failwith m)
    [ "bibliography"; "people"; "greengrocer" ];
  ignore (Registry.add_graph reg ~name:"restaurants" (restaurant_graph ()));
  server

(** What direct evaluation says for one suite query — computed fresh
    from the server's own snapshot so both sides see one graph. *)
let direct_body server (q : Gql_workload.Queries.server_query) : string =
  let snap = Option.get (Registry.find (Server.registry server) q.doc) in
  let graph = snap.Registry.db.Gql_core.Gql.graph in
  match Gql_core.Gql.language_of_source q.source with
  | `Xmlgl ->
    let p = Gql_core.Gql.parse_xmlgl q.source in
    Gql_core.Gql.to_xml_string
      (Gql_xmlgl.Engine.run_program ~index:snap.Registry.index graph p)
  | `Wglog ->
    let schema =
      match q.schema with
      | Some "restaurant" -> Some Gql_wglog.Schema.restaurant_schema
      | Some "hyperdoc" -> Some Gql_wglog.Schema.hyperdoc_schema
      | _ -> None
    in
    let p = Gql_core.Gql.parse_wglog ?schema q.source in
    Server.wglog_stats_line (Gql_wglog.Eval.run (Registry.fork snap) p)
  | `Match ->
    let q = Gql_core.Gql.parse_match q.source in
    fst (Gql_match.Eval.run ~index:snap.Registry.index graph q)
  | `Unknown -> failwith "unknown language"

let run_payload (q : Gql_workload.Queries.server_query) =
  Protocol.render_request
    (Protocol.Run
       { doc = q.doc; query = `Source q.source; schema = q.schema; deadline_ms = None })

(* --- language sniffing (the satellite fix) ------------------------------ *)

let test_language_of () =
  let lang s = Gql_core.Gql.language_of_source s in
  check_bool "lowercase wglog" true (lang "wglog\nrule\n" = `Wglog);
  check_bool "uppercase WGLOG" true (lang "WGLOG\nrule\n" = `Wglog);
  check_bool "mixed case XmlGl" true (lang "XmlGl\nrule\n" = `Xmlgl);
  check_bool "wglogx is not wglog" true (lang "wglogx\nrule\n" = `Unknown);
  check_bool "xmlgl2 is not xmlgl" true (lang "xmlgl2\n" = `Unknown);
  check_bool "comment lines skipped" true (lang "# note\n\nxmlgl\n" = `Xmlgl);
  check_bool "header args allowed" true (lang "xmlgl result r\n" = `Xmlgl);
  check_bool "tab separated" true (lang "wglog\tstrict\n" = `Wglog);
  check_bool "empty" true (lang "" = `Unknown)

(* --- graph copy --------------------------------------------------------- *)

let test_graph_copy_isolated () =
  let g = restaurant_graph () in
  let n0 = Gql_data.Graph.n_nodes g and e0 = Gql_data.Graph.n_edges g in
  let copy = Gql_data.Graph.copy g in
  let p =
    Gql_core.Gql.parse_wglog ~schema:Gql_wglog.Schema.restaurant_schema
      Gql_workload.Queries.q10_src
  in
  let stats = Gql_wglog.Eval.run copy p in
  check_bool "fixpoint derived something" true (stats.Gql_wglog.Eval.edges_added > 0);
  check_int "original nodes untouched" n0 (Gql_data.Graph.n_nodes g);
  check_int "original edges untouched" e0 (Gql_data.Graph.n_edges g);
  (* a second fork sees the pristine graph: byte-identical stats *)
  let stats' = Gql_wglog.Eval.run (Gql_data.Graph.copy g) p in
  check "fork determinism" (Server.wglog_stats_line stats)
    (Server.wglog_stats_line stats')

(* --- metrics histogram -------------------------------------------------- *)

let test_histogram_quantiles () =
  let h = Metrics.histogram () in
  for us = 1 to 1000 do
    Metrics.observe h ~us
  done;
  let p50 = Metrics.quantile h 0.50 in
  let p99 = Metrics.quantile h 0.99 in
  (* log-linear buckets promise <= 25% relative error *)
  check_bool "p50 near 500" true (p50 >= 500 && p50 <= 640);
  check_bool "p99 near 990" true (p99 >= 990 && p99 <= 1300);
  check_bool "monotone" true (p50 <= p99)

(* --- result cache LRU --------------------------------------------------- *)

let key doc version qhash = { Rcache.doc; version; qhash; kind = "run" }

let test_rcache_lru () =
  let c = Rcache.create ~capacity:2 () in
  Rcache.add c (key "d" 1 "a") ~info:"" "A";
  Rcache.add c (key "d" 1 "b") ~info:"" "B";
  ignore (Rcache.find c (key "d" 1 "a"));
  (* a is now MRU *)
  Rcache.add c (key "d" 1 "c") ~info:"" "C";
  (* b was LRU: evicted *)
  check_bool "a survives" true (Rcache.find c (key "d" 1 "a") <> None);
  check_bool "b evicted" true (Rcache.find c (key "d" 1 "b") = None);
  check_bool "c present" true (Rcache.find c (key "d" 1 "c") <> None);
  Rcache.purge_doc c "d";
  check_int "purge empties the doc" 0 (Rcache.length c)

let test_rcache_version_isolation () =
  let c = Rcache.create ~capacity:8 () in
  Rcache.add c (key "d" 1 "q") ~info:"" "old";
  check_bool "other version misses" true (Rcache.find c (key "d" 2 "q") = None)

(* --- prepared-query cache ----------------------------------------------- *)

let test_qcache () =
  let c = Qcache.create ~capacity:4 () in
  let src = Gql_workload.Queries.q1_src in
  (match Qcache.intern c ~schema:None src with
  | Ok (_, hit) -> check_bool "first intern is a miss" false hit
  | Error m -> Alcotest.fail m);
  (match Qcache.intern c ~schema:None src with
  | Ok (_, hit) -> check_bool "second intern hits" true hit
  | Error m -> Alcotest.fail m);
  (match Qcache.prepare c ~name:"q1" ~schema:None src with
  | Ok (entry, hit) ->
    check_bool "prepare of known source hits" true hit;
    check_bool "language detected" true (entry.Qcache.lang = `Xmlgl)
  | Error m -> Alcotest.fail m);
  (match Qcache.find_named c "q1" with
  | Ok (_, hit) -> check_bool "named lookup hits" true hit
  | Error m -> Alcotest.fail m);
  check_bool "unknown name errors" true
    (match Qcache.find_named c "nope" with Error _ -> true | Ok _ -> false);
  check_bool "parse errors surface" true
    (match Qcache.intern c ~schema:None "xmlgl\nrule\nsyntax error" with
    | Error _ -> true
    | Ok _ -> false);
  check_bool "bad schema tag errors" true
    (match Qcache.intern c ~schema:(Some "nope") Gql_workload.Queries.q10_src with
    | Error _ -> true
    | Ok _ -> false)

let test_qcache_reprepare_no_double_enqueue () =
  (* FIFO accounting: re-PREPAREing text the cache already holds must
     not enqueue its hash again — with capacity 3, preparing the same
     source capacity+1 times may evict nothing, and the other resident
     entries must still hit afterwards *)
  let capacity = 3 in
  let c = Qcache.create ~capacity () in
  let resident = [ Gql_workload.Queries.q2_src; Gql_workload.Queries.q3_src ] in
  List.iter
    (fun src ->
      match Qcache.intern c ~schema:None src with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m)
    resident;
  for i = 1 to capacity + 1 do
    match Qcache.prepare c ~name:"q1" ~schema:None Gql_workload.Queries.q1_src with
    | Ok (_, hit) -> check_bool "only the first prepare misses" (i > 1) hit
    | Error m -> Alcotest.fail m
  done;
  check_int "fifo holds one slot per distinct parse" 3
    (Queue.length c.Qcache.fifo);
  List.iter
    (fun src ->
      match Qcache.intern c ~schema:None src with
      | Ok (_, hit) -> check_bool "resident entry was not evicted" true hit
      | Error m -> Alcotest.fail m)
    resident

(* --- in-process byte identity ------------------------------------------- *)

let test_inprocess_byte_identity () =
  let server = new_server () in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      List.iter
        (fun (q : Gql_workload.Queries.server_query) ->
          let expected = direct_body server q in
          (* cold *)
          (match Protocol.parse_response (Server.handle_payload server (run_payload q)) with
          | Protocol.Ok_ { body; _ } -> check (q.sq_name ^ " cold") expected body
          | r -> Alcotest.failf "%s: %s" q.sq_name (Protocol.render_response r));
          (* cached: still byte-identical *)
          match Protocol.parse_response (Server.handle_payload server (run_payload q)) with
          | Protocol.Ok_ { info; body } ->
            check (q.sq_name ^ " cached") expected body;
            check_bool (q.sq_name ^ " hit the result cache") true
              (contains ~needle:" cached" info)
          | r -> Alcotest.failf "%s: %s" q.sq_name (Protocol.render_response r))
        Gql_workload.Queries.server_suite)

let test_malformed_programs_yield_err () =
  (* programs that parse but fail the semantic checks used to raise
     straight through handle_payload (killing the worker domain serving
     the connection); they must come back as framed ERRs, and the
     server must keep answering afterwards *)
  let server = new_server ~workers:1 () in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let send req =
        Protocol.parse_response
          (Server.handle_payload server (Protocol.render_request req))
      in
      let run source =
        send
          (Protocol.Run
             { doc = "people"; query = `Source source; schema = None;
               deadline_ms = None })
      in
      let rootless =
        "xmlgl\nresult result\nrule\nquery\n  node $q0 elem PERSON\n\
         construct\n  node c0 new out\nend\n"
      in
      let cyclic =
        "xmlgl\nresult result\nrule\nquery\n  node $q0 elem PERSON\n\
         construct\n  node c0 new out\n  node c1 new inner\n  root c0\n\
         \  edge c0 c1\n  edge c1 c0\nend\n"
      in
      let collect_query_edge =
        "wglog\nrule\n  node n0 PERSON\n  cnode n1 derived\n\
         \  edge n0 id n1\nend\n"
      in
      List.iter
        (fun (name, src) ->
          match run src with
          | Protocol.Err msg ->
            check_bool (name ^ " reports a typed invalid-query error") true
              (contains ~needle:"invalid query" msg)
          | r ->
            Alcotest.failf "%s: expected ERR, got %s" name
              (Protocol.render_response r))
        [ ("rootless construction", rootless); ("cyclic construction", cyclic);
          ("collect query edge", collect_query_edge) ];
      match send Protocol.Ping with
      | Protocol.Ok_ _ -> ()
      | r ->
        Alcotest.failf "server stopped answering: %s"
          (Protocol.render_response r))

(* --- socket byte identity ----------------------------------------------- *)

let with_socket_server ?workers ?result_cache ?default_deadline_ms f =
  let server = new_server ?workers ?result_cache ?default_deadline_ms () in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gql-test-%d-%d.sock" (Unix.getpid ()) (Random.bits ()))
  in
  let _ = Server.listen server (Unix.ADDR_UNIX path) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () -> f server path)

let test_socket_byte_identity () =
  with_socket_server (fun server path ->
      let c = Client.connect_unix path in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          List.iter
            (fun (q : Gql_workload.Queries.server_query) ->
              let expected = direct_body server q in
              match Client.run c ~doc:q.doc ?schema:q.schema (`Source q.source) with
              | Ok (_, body) -> check (q.sq_name ^ " over socket") expected body
              | Error m -> Alcotest.failf "%s: %s" q.sq_name m)
            Gql_workload.Queries.server_suite))

(* --- prepared queries over the wire -------------------------------------- *)

let test_prepare_and_run () =
  with_socket_server (fun server path ->
      let c = Client.connect_unix path in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let q =
            List.find
              (fun (q : Gql_workload.Queries.server_query) -> q.sq_name = "Q2")
              Gql_workload.Queries.server_suite
          in
          (match Client.prepare c ~name:"expensive" q.source with
          | Ok (info, _) ->
            check_bool "prepare reports lang" true
              (contains ~needle:"lang=xmlgl" info)
          | Error m -> Alcotest.fail m);
          match Client.run c ~doc:q.doc (`Named "expensive") with
          | Ok (_, body) -> check "named run" (direct_body server q) body
          | Error m -> Alcotest.fail m))

(* --- stats / metrics / errors / deadlines -------------------------------- *)

let test_stats_metrics_errors () =
  with_socket_server (fun _server path ->
      let c = Client.connect_unix path in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (match Client.ping c with
          | Ok (info, _) -> check "ping" "pong" info
          | Error m -> Alcotest.fail m);
          (match Client.stats c ~doc:"bibliography" with
          | Ok (_, body) ->
            check_bool "stats mentions nodes" true
              (List.mem_assoc "nodes" (Metrics.parse_body body))
          | Error m -> Alcotest.fail m);
          check_bool "unknown doc errors" true
            (Result.is_error (Client.stats c ~doc:"missing"));
          check_bool "bad source errors" true
            (Result.is_error (Client.run c ~doc:"bibliography" (`Source "nonsense")));
          (* deadline 0: always overdue -> graceful TIMEOUT, socket stays up *)
          (match
             Client.run c ~doc:"bibliography" ~deadline_ms:0.0
               (`Source Gql_workload.Queries.q1_src)
           with
          | Error m ->
            check_bool "timeout reported" true
              (String.length m >= 7 && String.sub m 0 7 = "timeout")
          | Ok _ -> Alcotest.fail "deadline=0 must time out");
          match Client.metrics c with
          | Ok (_, body) ->
            let kv = Metrics.parse_body body in
            check_bool "requests counted" true
              (int_of_string (List.assoc "requests" kv) >= 4);
            check_bool "timeout counted" true
              (int_of_string (List.assoc "timeouts" kv) >= 1);
            (* the Par scheduler's slice rides along *)
            check_bool "par stats exported" true
              (List.mem_assoc "par_jobs" kv
              && List.mem_assoc "par_seq_below_cutoff" kv
              && List.mem_assoc "par_cutoff" kv);
            (* ... and so do the path-engine counters *)
            check_bool "path stats exported" true
              (List.mem_assoc "path_compiles" kv
              && List.mem_assoc "path_specialisations" kv
              && List.mem_assoc "path_searches" kv
              && List.mem_assoc "path_memo_hits" kv
              && List.mem_assoc "path_memo_misses" kv
              && List.mem_assoc "path_frontier_peak" kv
              && List.mem_assoc "path_scratch_reuses" kv);
            (* ... and the snapshot store's *)
            check_bool "snapshot stats exported" true
              (List.mem_assoc "snapshot_saves" kv
              && List.mem_assoc "snapshot_loads" kv
              && List.mem_assoc "snapshot_save_ms" kv
              && List.mem_assoc "snapshot_load_ms" kv
              && List.mem_assoc "snapshot_bytes" kv)
          | Error m -> Alcotest.fail m))

(* --- plan cache ----------------------------------------------------------- *)

let test_plan_cache_counters () =
  (* result cache off, so the second identical RUN actually re-evaluates
     — but planning must be skipped: one plan-cache miss, then hits. *)
  with_socket_server ~result_cache:0 (fun _server path ->
      let c = Client.connect_unix path in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let src = Gql_workload.Queries.m1_src in
          let run () =
            match Client.run c ~doc:"bibliography" (`Source src) with
            | Ok (_, body) -> body
            | Error m -> Alcotest.fail m
          in
          let first = run () in
          check "identical bodies from cached plan" first (run ());
          match Client.metrics c with
          | Ok (_, body) ->
            let kv = Metrics.parse_body body in
            check_bool "plan cache missed on first run" true
              (int_of_string (List.assoc "plan_cache_misses" kv) >= 1);
            check_bool "plan cache hit on second run" true
              (int_of_string (List.assoc "plan_cache_hits" kv) >= 1)
          | Error m -> Alcotest.fail m))

(* --- snapshot versioning over the wire ------------------------------------ *)

let test_reload_invalidates () =
  with_socket_server (fun server path ->
      let c = Client.connect_unix path in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let q1 = Gql_workload.Queries.q1_src in
          let before =
            match Client.run c ~doc:"bibliography" (`Source q1) with
            | Ok (_, body) -> body
            | Error m -> Alcotest.fail m
          in
          (* re-LOAD a *different* bibliography under the same name *)
          let xml =
            Gql_xml.Printer.to_string (Gql_workload.Gen.bibliography ~seed:999 10)
          in
          (match Client.load c ~doc:"bibliography" xml with
          | Ok (info, _) ->
            check_bool "version bumped" true
              (let kv =
                 List.filter_map
                   (fun t ->
                     match String.index_opt t '=' with
                     | Some i ->
                       Some
                         ( String.sub t 0 i,
                           String.sub t (i + 1) (String.length t - i - 1) )
                     | None -> None)
                   (String.split_on_char ' ' info)
               in
               List.assoc "version" kv = "2")
          | Error m -> Alcotest.fail m);
          let after =
            match Client.run c ~doc:"bibliography" (`Source q1) with
            | Ok (_, body) -> body
            | Error m -> Alcotest.fail m
          in
          check_bool "stale result not replayed" true (before <> after);
          let q =
            List.find
              (fun (q : Gql_workload.Queries.server_query) -> q.sq_name = "Q1")
              Gql_workload.Queries.server_suite
          in
          check "fresh snapshot served" (direct_body server q) after))

(* --- concurrent determinism (the 4-domain stress case) -------------------- *)

(* A regular-path WG-Log rule served from a loaded snapshot: every RUN
   forks the one snapshot, and every fork starts on its shared index and
   path memo. *)
let path_rule_src =
  {|wglog
rule
  node b bib
  node n last-name
  pathedge b .+ n
  cedge b reaches n
end
|}

let load_bib_snapshot server =
  let reg = Server.registry server in
  let bib = Option.get (Registry.find reg "bibliography") in
  let path = Filename.temp_file "gql-test-bib" ".snap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      ignore (Gql_data.Store.save ~path bib.Registry.index);
      match Registry.load_snapshot reg ~name:"bibsnap" path with
      | Ok snap -> snap
      | Error m -> failwith m)

let test_concurrent_determinism () =
  with_socket_server ~workers:4 (fun server path ->
      (* expected bodies from single-threaded direct evaluation *)
      let expected =
        List.map
          (fun (q : Gql_workload.Queries.server_query) ->
            (q.sq_name, direct_body server q))
          Gql_workload.Queries.server_suite
      in
      let bibsnap = load_bib_snapshot server in
      let path_stats =
        Gql_wglog.Eval.run (Registry.fork bibsnap)
          (Gql_core.Gql.parse_wglog path_rule_src)
      in
      check_bool "path rule derives edges" true
        (path_stats.Gql_wglog.Eval.edges_added > 0);
      let path_expected = Server.wglog_stats_line path_stats in
      let n_threads = 8 and per_thread = 30 in
      let failures = ref [] in
      let mu = Mutex.create () in
      let client_thread k () =
        let mix = Gql_workload.Queries.server_mix ~seed:(100 + k) per_thread in
        let c = Client.connect_unix path in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            List.iter
              (fun (q : Gql_workload.Queries.server_query) ->
                let want = List.assoc q.sq_name expected in
                match Client.run c ~doc:q.doc ?schema:q.schema (`Source q.source) with
                | Ok (_, body) when body = want -> ()
                | Ok _ ->
                  Mutex.lock mu;
                  failures := Printf.sprintf "thread %d: %s diverged" k q.sq_name :: !failures;
                  Mutex.unlock mu
                | Error m ->
                  Mutex.lock mu;
                  failures := Printf.sprintf "thread %d: %s: %s" k q.sq_name m :: !failures;
                  Mutex.unlock mu)
              mix;
            (* a distinct source per request, so no cache answers it *)
            for i = 1 to 4 do
              let src = Printf.sprintf "# client %d run %d\n%s" k i path_rule_src in
              match Client.run c ~doc:"bibsnap" (`Source src) with
              | Ok (_, body) when body = path_expected -> ()
              | Ok _ ->
                Mutex.lock mu;
                failures := Printf.sprintf "thread %d: path rule diverged" k :: !failures;
                Mutex.unlock mu
              | Error m ->
                Mutex.lock mu;
                failures := Printf.sprintf "thread %d: path rule: %s" k m :: !failures;
                Mutex.unlock mu
            done)
      in
      let threads = List.init n_threads (fun k -> Thread.create (client_thread k) ()) in
      List.iter Thread.join threads;
      (match !failures with
      | [] -> ()
      | fs -> Alcotest.fail (String.concat "; " fs));
      let c = Client.connect_unix path in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match Client.metrics c with
          | Ok (_, body) ->
            let kv = Metrics.parse_body body in
            check_bool "all requests served" true
              (int_of_string (List.assoc "requests" kv) >= n_threads * per_thread)
          | Error m -> Alcotest.fail m))

(* --- protocol framing ----------------------------------------------------- *)

let test_framing_roundtrip () =
  let payloads =
    [ ""; "x"; "two\nlines"; String.make 100_000 'z'; "trailing\n" ]
  in
  let path = Filename.temp_file "gql-frame" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      List.iter (Protocol.write_frame oc) payloads;
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          List.iter
            (fun want ->
              match Protocol.read_frame ic with
              | Some got -> check "frame" want got
              | None -> Alcotest.fail "premature EOF")
            payloads;
          check_bool "clean EOF" true (Protocol.read_frame ic = None)))

let test_request_roundtrip () =
  let reqs =
    [
      Protocol.Load { doc = "d"; xml = "<a/>" };
      Protocol.Prepare { name = "n"; schema = Some "restaurant"; source = "wglog\n" };
      Protocol.Run
        { doc = "d"; query = `Named "n"; schema = None; deadline_ms = Some 25.0 };
      Protocol.Run
        { doc = "d"; query = `Source "xmlgl\nbody"; schema = None; deadline_ms = None };
      Protocol.Explain { doc = "d"; query = `Named "n" };
      Protocol.Stats { doc = "d" };
      Protocol.Metrics;
      Protocol.Ping;
      Protocol.Quit;
    ]
  in
  List.iter
    (fun r ->
      check_bool "roundtrip" true
        (Protocol.parse_request (Protocol.render_request r) = r))
    reqs;
  check_bool "verbs are case-insensitive" true
    (Protocol.parse_request "stats d" = Protocol.Stats { doc = "d" });
  check_bool "unknown verb rejected" true
    (match Protocol.parse_request "FROB x" with
    | exception Protocol.Protocol_error _ -> true
    | _ -> false)

let () =
  Alcotest.run "server"
    [
      ( "satellites",
        [
          Alcotest.test_case "language_of_source" `Quick test_language_of;
          Alcotest.test_case "graph copy isolation" `Quick test_graph_copy_isolated;
        ] );
      ( "components",
        [
          Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "result-cache LRU" `Quick test_rcache_lru;
          Alcotest.test_case "result-cache versioning" `Quick test_rcache_version_isolation;
          Alcotest.test_case "prepared-query cache" `Quick test_qcache;
          Alcotest.test_case "re-prepare FIFO accounting" `Quick
            test_qcache_reprepare_no_double_enqueue;
          Alcotest.test_case "frame roundtrip" `Quick test_framing_roundtrip;
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
        ] );
      ( "byte-identity",
        [
          Alcotest.test_case "in-process, cold and cached" `Quick
            test_inprocess_byte_identity;
          Alcotest.test_case "over a unix socket" `Quick test_socket_byte_identity;
          Alcotest.test_case "prepared run" `Quick test_prepare_and_run;
          Alcotest.test_case "plan cache counters" `Quick
            test_plan_cache_counters;
          Alcotest.test_case "reload invalidates" `Quick test_reload_invalidates;
        ] );
      ( "service",
        [
          Alcotest.test_case "stats, metrics, errors, deadline" `Quick
            test_stats_metrics_errors;
          Alcotest.test_case "malformed programs yield ERR" `Quick
            test_malformed_programs_yield_err;
          Alcotest.test_case "8 clients x 4 domains determinism" `Quick
            test_concurrent_determinism;
        ] );
    ]
