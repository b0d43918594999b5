(* The persistent snapshot store: freeze -> save -> load must be
   observationally identical to the freshly frozen index for every
   engine and every MATCH route, corrupt files must be rejected with a
   typed error naming the offending section, and re-loading identical
   content must reuse the existing registry snapshot (version
   unchanged, caches warm). *)

module Store = Gql_data.Store
module Registry = Gql_server.Registry

let check = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let docs =
  [
    ("bibliography", lazy (Gql_workload.Gen.bibliography ~seed:81 40));
    ("people", lazy (Gql_workload.Gen.people ~seed:82 60));
    ("greengrocer", lazy (Gql_workload.Gen.greengrocer ~seed:83 80));
  ]

let xml_of name =
  Gql_xml.Printer.to_string (Lazy.force (List.assoc name docs))

(* Save [db]'s frozen index to a fresh temp file; caller removes it. *)
let save_db (db : Gql_core.Gql.db) : string =
  let path = Filename.temp_file "gql-store" ".snap" in
  ignore (Store.save ~path (Gql_core.Gql.index db));
  path

let with_roundtrip name (f : Gql_core.Gql.db -> Gql_core.Gql.db -> unit) =
  let frozen = Gql_core.Gql.load_xml_string (xml_of name) in
  let path = save_db frozen in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f frozen (Gql_core.Gql.load_snapshot_file path))

(* --- identity across engines and routes ------------------------------- *)

let test_xmlgl_identity () =
  List.iter
    (fun (q : Gql_workload.Queries.server_query) ->
      match Gql_core.Gql.language_of_source q.source with
      | `Xmlgl when List.mem_assoc q.doc docs ->
        with_roundtrip q.doc (fun frozen loaded ->
            let run db =
              Gql_core.Gql.to_xml_string (Gql_core.Gql.run_xmlgl_text db q.source)
            in
            check (q.sq_name ^ " identical") (run frozen) (run loaded))
      | _ -> ())
    Gql_workload.Queries.server_suite

let test_match_routes_identity () =
  List.iter
    (fun (q : Gql_workload.Queries.server_query) ->
      match Gql_core.Gql.language_of_source q.source with
      | `Match when List.mem_assoc q.doc docs ->
        with_roundtrip q.doc (fun frozen loaded ->
            let routes (db : Gql_core.Gql.db) =
              let data = db.Gql_core.Gql.graph in
              let c =
                Gql_match.Compile.compile (Gql_core.Gql.parse_match q.source)
              in
              let body f = Gql_match.Eval.body data c (f c) in
              [
                ("homo-scan", body (fun c -> Gql_match.Eval.bindings data c));
                ( "homo-indexed",
                  body (fun c ->
                      Gql_match.Eval.bindings ~index:(Gql_core.Gql.index db)
                        data c) );
                ( "algebra-indexed",
                  body (fun c ->
                      Gql_match.Eval.bindings_algebra
                        ~index:(Gql_core.Gql.index db) data c) );
                ( "algebra-noindex",
                  body (fun c -> Gql_match.Eval.bindings_algebra data c) );
              ]
            in
            List.iter2
              (fun (label, a) (_, b) ->
                check (q.sq_name ^ " " ^ label ^ " identical") a b)
              (routes frozen) (routes loaded))
      | _ -> ())
    Gql_workload.Queries.server_suite

let test_wglog_identity () =
  (* the deductive engine: fixpoint on a fork of the loaded graph must
     derive exactly what a fork of the frozen graph derives *)
  let graph = Gql_workload.Gen.restaurants ~seed:84 50 in
  let frozen = Gql_core.Gql.of_graph graph in
  let path = save_db frozen in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let loaded = Gql_core.Gql.load_snapshot_file path in
      let run (db : Gql_core.Gql.db) =
        let fork = Gql_core.Gql.of_graph (Gql_data.Graph.copy db.Gql_core.Gql.graph) in
        let stats =
          Gql_core.Gql.run_wglog_text
            ~schema:Gql_wglog.Schema.restaurant_schema fork
            Gql_workload.Queries.q10_src
        in
        ( stats.Gql_wglog.Eval.rounds, stats.embeddings_found,
          stats.nodes_added, stats.edges_added,
          Gql_core.Gql.stats fork )
      in
      check_bool "wglog fixpoints identical" true (run frozen = run loaded))

let test_lazy_load () =
  with_roundtrip "bibliography" (fun frozen loaded ->
      (* the mutable graph stays cold until an engine actually needs it;
         node/edge counts answer from the snapshot header *)
      check_bool "graph not thawed by load" false
        (Gql_data.Graph.forced loaded.Gql_core.Gql.graph);
      check_bool "stats without thaw" true
        (Gql_core.Gql.stats loaded = Gql_core.Gql.stats frozen);
      check_bool "still not thawed" false
        (Gql_data.Graph.forced loaded.Gql_core.Gql.graph);
      ignore (Gql_data.Graph.digraph loaded.Gql_core.Gql.graph);
      check_bool "thawed on demand" true
        (Gql_data.Graph.forced loaded.Gql_core.Gql.graph))

(* --- corrupt / truncated / wrong-version files ------------------------- *)

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> Bytes.of_string (really_input_string ic (in_channel_length ic)))

let write_bytes path b =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_bytes oc b)

(* Write a mutated copy of [src] and expect [Store.load] to reject it
   with a typed error; returns the section the error names. *)
let expect_invalid ~what src (mutate : Bytes.t -> Bytes.t) : string =
  let path = Filename.temp_file "gql-store" ".bad" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      write_bytes path (mutate (read_bytes src));
      match Store.load ~path with
      | _ -> Alcotest.failf "%s: corrupt file loaded" what
      | exception Store.Invalid_snapshot { section; _ } -> section)

let with_valid_file (f : string -> unit) =
  let db = Gql_core.Gql.load_xml_string (xml_of "bibliography") in
  let path = save_db db in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_reject_magic_and_version () =
  with_valid_file (fun path ->
      let sec =
        expect_invalid ~what:"magic" path (fun b -> Bytes.set b 0 'X'; b)
      in
      check "magic error names header" "header" sec;
      let sec =
        expect_invalid ~what:"version" path (fun b ->
            (* h_version lives at byte 8, little-endian *)
            Bytes.set b 8 '\x63'; b)
      in
      check "version error names header" "header" sec)

let test_reject_truncation () =
  with_valid_file (fun path ->
      let total = Bytes.length (read_bytes path) in
      List.iter
        (fun keep ->
          ignore
            (expect_invalid ~what:(Printf.sprintf "truncate to %d" keep) path
               (fun b -> Bytes.sub b 0 keep)))
        [ 0; 7; 100; 4096; total / 2; total - 1 ])

let test_reject_bit_flips () =
  with_valid_file (fun path ->
      let info = Store.validate path in
      (* flip the first byte of every non-empty section: each must be
         caught by that section's checksum (or the structural checks) *)
      List.iter
        (fun (name, off, elems) ->
          if elems > 0 then begin
            let sec =
              expect_invalid ~what:("flip " ^ name) path (fun b ->
                  Bytes.set b off
                    (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
                  b)
            in
            check_bool
              (Printf.sprintf "flip in %s names a section (%s)" name sec)
              true (String.length sec > 0)
          end)
        info.Store.info_sections;
      (* ... and a flip inside the header table *)
      ignore
        (expect_invalid ~what:"flip header table" path (fun b ->
             Bytes.set b 70 (Char.chr (Char.code (Bytes.get b 70) lxor 0x01));
             b)))

(* --- registry digest reuse --------------------------------------------- *)

let test_registry_xml_reuse () =
  let reg = Registry.create () in
  let xml = xml_of "bibliography" in
  let v1 =
    match Registry.load_xml reg ~name:"d" xml with
    | Ok s -> s.Registry.version
    | Error m -> Alcotest.fail m
  in
  let v2 =
    match Registry.load_xml reg ~name:"d" xml with
    | Ok s -> s.Registry.version
    | Error m -> Alcotest.fail m
  in
  check_int "identical xml reuses the snapshot" v1 v2;
  let v3 =
    match Registry.load_xml reg ~name:"d" (xml_of "people") with
    | Ok s -> s.Registry.version
    | Error m -> Alcotest.fail m
  in
  check_bool "different xml bumps the version" true (v3 > v1)

let test_registry_snapshot_reuse () =
  with_valid_file (fun path ->
      let reg = Registry.create () in
      let load () =
        match Registry.load_snapshot reg ~name:"d" path with
        | Ok s -> s.Registry.version
        | Error m -> Alcotest.fail m
      in
      let v1 = load () in
      check_int "identical file reuses the snapshot" v1 (load ());
      (* a genuinely different snapshot file under the same name bumps *)
      let db2 = Gql_core.Gql.load_xml_string (xml_of "people") in
      let path2 = save_db db2 in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path2 with Sys_error _ -> ())
        (fun () ->
          match Registry.load_snapshot reg ~name:"d" path2 with
          | Ok s -> check_bool "new file bumps" true (s.Registry.version > v1)
          | Error m -> Alcotest.fail m))

let test_registry_snapshot_rejects () =
  let reg = Registry.create () in
  let path = Filename.temp_file "gql-store" ".bad" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      write_bytes path (Bytes.of_string "not a snapshot at all");
      match Registry.load_snapshot reg ~name:"d" path with
      | Ok _ -> Alcotest.fail "garbage accepted"
      | Error msg ->
        check_bool "error mentions the file" true
          (String.length msg > 0))

(* --- validate / file_key ----------------------------------------------- *)

let test_validate_info () =
  with_valid_file (fun path ->
      let i = Store.validate path in
      let db = Gql_core.Gql.load_xml_string (xml_of "bibliography") in
      let nodes, edges = Gql_core.Gql.stats db in
      check_int "nodes" nodes i.Store.info_nodes;
      check_int "edges" edges i.Store.info_edges;
      check_int "format" 1 i.Store.info_format;
      check_bool "sections listed" true (List.length i.Store.info_sections >= 30);
      (* the content key is stable across processes and reads *)
      check "file_key stable" (Store.file_key path) (Store.file_key path))

let () =
  Alcotest.run "store"
    [
      ( "identity",
        [
          Alcotest.test_case "xmlgl suite" `Quick test_xmlgl_identity;
          Alcotest.test_case "match routes" `Quick test_match_routes_identity;
          Alcotest.test_case "wglog fixpoint" `Quick test_wglog_identity;
          Alcotest.test_case "lazy thaw" `Quick test_lazy_load;
        ] );
      ( "rejects",
        [
          Alcotest.test_case "magic and version" `Quick test_reject_magic_and_version;
          Alcotest.test_case "truncation" `Quick test_reject_truncation;
          Alcotest.test_case "bit flips" `Quick test_reject_bit_flips;
        ] );
      ( "registry",
        [
          Alcotest.test_case "xml digest reuse" `Quick test_registry_xml_reuse;
          Alcotest.test_case "snapshot digest reuse" `Quick test_registry_snapshot_reuse;
          Alcotest.test_case "typed rejection" `Quick test_registry_snapshot_rejects;
        ] );
      ( "validate",
        [ Alcotest.test_case "info and file_key" `Quick test_validate_info ] );
    ]
