(** The seven differential oracles.

    Each oracle evaluates the same question along two redundant paths
    that share as little code as possible and demands byte-identical
    answers:

    - {!scan_vs_index}: embedding search with scan candidates vs. the
      frozen index provider (same embeddings, same order);
    - {!digraph_vs_csr}: regular-path reachability over the mutable
      [Digraph] vs. the frozen [Csr] view (both sorted);
    - {!engine_vs_algebra}: the direct XML-GL matcher vs. the algebra
      planner/executor (compared as sorted binding sets — plan order is
      not part of the contract);
    - {!direct_vs_served}: in-process evaluation vs. a [gql serve]
      round-trip, cold and cached;
    - {!seq_vs_par}: 1-domain vs. N-domain evaluation — bindings, goal
      embeddings, fixpoint statistics and the derived graph must all be
      byte-identical (the determinism guarantee of [Gql_graph.Par]);
    - {!match_vs_algebra}: the textual [MATCH] front-end — parse→pp→parse
      identity, then the canonical result body along four in-process
      routes (direct matcher and algebra, each scan and indexed) and
      through a served round-trip, cold and cached;
    - {!loaded_vs_frozen}: a freshly frozen index vs. the same index
      after a {!Gql_data.Store} save/load round-trip — every engine
      must answer byte-identically on the loaded flat planes, and the
      lazily thawed graph must fingerprint the same.

    Any disagreement — including one side raising where the other
    answers — is a {!Fail}; uncaught exceptions are converted to
    failures by the driver.  Every oracle takes plain strings so the
    shrinker can re-run it on candidate inputs. *)

type name =
  | Scan_vs_index
  | Digraph_vs_csr
  | Engine_vs_algebra
  | Direct_vs_served
  | Seq_vs_par
  | Match_vs_algebra
  | Loaded_vs_frozen

let all =
  [ Scan_vs_index; Digraph_vs_csr; Engine_vs_algebra; Direct_vs_served;
    Seq_vs_par; Match_vs_algebra; Loaded_vs_frozen ]

let to_string = function
  | Scan_vs_index -> "scan-vs-index"
  | Digraph_vs_csr -> "digraph-vs-csr"
  | Engine_vs_algebra -> "engine-vs-algebra"
  | Direct_vs_served -> "direct-vs-served"
  | Seq_vs_par -> "seq-vs-par"
  | Match_vs_algebra -> "match-vs-algebra"
  | Loaded_vs_frozen -> "loaded-vs-frozen"

let of_string = function
  | "scan-vs-index" -> Some Scan_vs_index
  | "digraph-vs-csr" -> Some Digraph_vs_csr
  | "engine-vs-algebra" -> Some Engine_vs_algebra
  | "direct-vs-served" -> Some Direct_vs_served
  | "seq-vs-par" -> Some Seq_vs_par
  | "match-vs-algebra" -> Some Match_vs_algebra
  | "loaded-vs-frozen" -> Some Loaded_vs_frozen
  | _ -> None

type verdict = Pass | Fail of string

let failf fmt = Printf.ksprintf (fun s -> Fail s) fmt

(* Evaluate a thunk to a result-or-error; the typed errors the engines
   may legitimately raise become comparable [Error] values, so an
   oracle can also check that both paths *reject* an input. *)
let capture (f : unit -> 'a) : ('a, string) result =
  match f () with
  | v -> Ok v
  | exception Gql_core.Gql.Error msg -> Error ("gql: " ^ msg)
  | exception Gql_wglog.Eval.Invalid_query msg -> Error ("invalid query: " ^ msg)
  | exception Gql_xmlgl.Construct.Invalid_query msg ->
    Error ("invalid query: " ^ msg)
  | exception Gql_xmlgl.Engine.Ill_formed errs ->
    Error ("invalid query: " ^ String.concat "; " errs)
  | exception Gql_match.Parse.Error msg -> Error ("match parse: " ^ msg)
  | exception Gql_match.Compile.Error msg -> Error ("invalid query: " ^ msg)
  | exception Failure msg -> Error ("failure: " ^ msg)

let norm_bindings (bs : int array list) : int list list =
  List.sort compare (List.map Array.to_list bs)

(* ------------------------------------------------------------------ *)
(* (a) scan vs. indexed candidates                                     *)
(* ------------------------------------------------------------------ *)

let scan_vs_index ~(xml : string) ~(source : string) : verdict =
  match capture (fun () -> Gql_core.Gql.load_xml_string xml) with
  | Error e -> failf "document rejected: %s" e
  | Ok db -> (
    let data = db.Gql_core.Gql.graph in
    match Gql_core.Gql.language_of_source source with
    | `Xmlgl -> (
      let run use_index =
        capture (fun () ->
            let p = Gql_core.Gql.parse_xmlgl source in
            List.concat_map
              (fun (r : Gql_xmlgl.Ast.rule) ->
                if use_index then
                  Gql_xmlgl.Engine.query_bindings ~index:(Gql_core.Gql.index db)
                    data r.Gql_xmlgl.Ast.query
                else Gql_xmlgl.Engine.query_bindings data r.Gql_xmlgl.Ast.query)
              p.Gql_xmlgl.Ast.rules)
      in
      match run false, run true with
      | Ok scan, Ok indexed ->
        if List.equal (fun a b -> a = b) (List.map Array.to_list scan)
             (List.map Array.to_list indexed)
        then Pass
        else
          failf "xmlgl bindings differ: scan=%d indexed=%d" (List.length scan)
            (List.length indexed)
      | Error a, Error b -> if a = b then Pass else failf "errors differ: %s / %s" a b
      | Ok _, Error e -> failf "indexed raised where scan answered: %s" e
      | Error e, Ok _ -> failf "scan raised where indexed answered: %s" e)
    | `Wglog -> (
      let run use_index =
        capture (fun () ->
            let p = Gql_core.Gql.parse_wglog source in
            List.concat_map
              (fun r ->
                if use_index then
                  Gql_wglog.Eval.goal ~index:(Gql_core.Gql.index db) data r
                else Gql_wglog.Eval.goal data r)
              p.Gql_wglog.Ast.rules)
      in
      match run false, run true with
      | Ok scan, Ok indexed ->
        if List.map Array.to_list scan = List.map Array.to_list indexed then Pass
        else
          failf "wglog embeddings differ: scan=%d indexed=%d" (List.length scan)
            (List.length indexed)
      | Error a, Error b -> if a = b then Pass else failf "errors differ: %s / %s" a b
      | Ok _, Error e -> failf "indexed raised where scan answered: %s" e
      | Error e, Ok _ -> failf "scan raised where indexed answered: %s" e)
    | `Match -> (
      let run use_index =
        capture (fun () ->
            let q = Gql_core.Gql.parse_match source in
            let c = Gql_match.Compile.compile q in
            let index = if use_index then Some (Gql_core.Gql.index db) else None in
            Gql_match.Eval.bindings ?index data c)
      in
      match run false, run true with
      | Ok scan, Ok indexed ->
        if List.map Array.to_list scan = List.map Array.to_list indexed then Pass
        else
          failf "match embeddings differ: scan=%d indexed=%d" (List.length scan)
            (List.length indexed)
      | Error a, Error b -> if a = b then Pass else failf "errors differ: %s / %s" a b
      | Ok _, Error e -> failf "indexed raised where scan answered: %s" e
      | Error e, Ok _ -> failf "scan raised where indexed answered: %s" e)
    | `Unknown -> failf "query source has no language header")

(* ------------------------------------------------------------------ *)
(* (b) Digraph vs. frozen Csr regular-path search                      *)
(* ------------------------------------------------------------------ *)

let digraph_vs_csr ~(graph_seed : int) ~(regex_src : string) : verdict =
  match Gql_lang.Label_re.parse regex_src with
  (* a regex the parser refuses is vacuous for this oracle; the
     parse-error path has its own unit tests *)
  | exception Gql_lang.Label_re.Error _ -> Pass
  | re -> (
    let g = Casegen.gen_graph ~graph_seed in
    let rp =
      Gql_graph.Regpath.compile
        (fun sym lbl -> Gql_lang.Label_re.symbol_matches sym lbl)
        re
    in
    let frozen = Gql_graph.Csr.freeze g in
    let n = Gql_graph.Digraph.n_nodes g in
    let rec check_from s =
      if s >= n then Pass
      else
        let live = Gql_graph.Regpath.reachable rp g s in
        let cold = Gql_graph.Regpath.reachable_frozen rp frozen s in
        if live <> cold then
          failf "reachable sets differ from node %d under /%s/: live=%d frozen=%d"
            s regex_src (List.length live) (List.length cold)
        else check_from (s + 1)
    in
    check_from 0)

(* ------------------------------------------------------------------ *)
(* (c) direct engine vs. algebra planner/exec                          *)
(* ------------------------------------------------------------------ *)

let engine_vs_algebra ~(xml : string) ~(source : string) : verdict =
  match Gql_core.Gql.language_of_source source with
  | `Wglog | `Unknown -> Pass (* the algebra path plans XML-GL queries *)
  | `Match -> Pass (* covered, more strictly, by match_vs_algebra *)
  | `Xmlgl -> (
    match
      capture (fun () ->
          let db = Gql_core.Gql.load_xml_string xml in
          let p = Gql_core.Gql.parse_xmlgl source in
          (db, p))
    with
    | Error e -> failf "inputs rejected: %s" e
    | Ok (db, p) ->
      let data = db.Gql_core.Gql.graph in
      let idx = Gql_core.Gql.index db in
      let rec rules = function
        | [] -> Pass
        | (r : Gql_xmlgl.Ast.rule) :: rest -> (
          let q = r.Gql_xmlgl.Ast.query in
          let direct =
            capture (fun () -> norm_bindings (Gql_xmlgl.Matching.run ~index:idx data q))
          in
          let planned =
            capture (fun () ->
                norm_bindings (Gql_algebra.Exec.run_xmlgl ~index:idx data q))
          in
          match direct, planned with
          | Ok d, Ok a ->
            if d = a then rules rest
            else
              failf "binding sets differ: direct=%d algebra=%d"
                (List.length d) (List.length a)
          | Error a, Error b ->
            if a = b then rules rest else failf "errors differ: %s / %s" a b
          | d, a ->
            let s = function Ok _ -> "ok" | Error e -> e in
            failf "one path raised: direct=%s algebra=%s" (s d) (s a))
      in
      rules p.Gql_xmlgl.Ast.rules)

(* ------------------------------------------------------------------ *)
(* (d) direct vs. served (cold and cached)                             *)
(* ------------------------------------------------------------------ *)

type transport = Gql_server.Protocol.request -> Gql_server.Protocol.response
(** One service request; either a socket round-trip or the in-process
    [handle_payload] — the corpus replays use the latter so tier-1
    tests need no sockets. *)

let socket_transport (c : Gql_server.Client.t) : transport =
  fun req -> Gql_server.Client.request c req

let inproc_transport (s : Gql_server.Server.t) : transport =
  fun req ->
    Gql_server.Protocol.parse_response
      (Gql_server.Server.handle_payload s (Gql_server.Protocol.render_request req))

(** What direct evaluation answers for [source] over [xml]: exactly the
    body a [RUN] response carries, or a typed error. *)
let direct_body ~xml ~source : (string, string) result =
  capture (fun () ->
      let db = Gql_core.Gql.load_xml_string xml in
      match Gql_core.Gql.language_of_source source with
      | `Xmlgl ->
        Gql_core.Gql.to_xml_string
          (Gql_core.Gql.run_xmlgl db (Gql_core.Gql.parse_xmlgl source))
      | `Wglog ->
        Gql_server.Server.wglog_stats_line
          (Gql_core.Gql.run_wglog db (Gql_core.Gql.parse_wglog source))
      | `Match -> fst (Gql_core.Gql.run_match db (Gql_core.Gql.parse_match source))
      | `Unknown ->
        failwith "query source must start with 'xmlgl', 'wglog' or 'match'")

let direct_vs_served (t : transport) ~(doc_name : string) ~(xml : string)
    ~(source : string) : verdict =
  let load = t (Gql_server.Protocol.Load { doc = doc_name; xml }) in
  let direct_db = capture (fun () -> ignore (Gql_core.Gql.load_xml_string xml)) in
  match load, direct_db with
  | Gql_server.Protocol.Err _, Error _ -> Pass (* both reject the document *)
  | Gql_server.Protocol.Err msg, Ok () -> failf "served LOAD rejected: %s" msg
  | (Gql_server.Protocol.Ok_ _ | Gql_server.Protocol.Timeout _), Error e ->
    failf "direct load rejected where served LOAD answered: %s" e
  | Gql_server.Protocol.Timeout _, Ok () -> Fail "LOAD timed out"
  | Gql_server.Protocol.Ok_ _, Ok () -> (
    let direct = direct_body ~xml ~source in
    let run () =
      t
        (Gql_server.Protocol.Run
           { doc = doc_name; query = `Source source; schema = None; deadline_ms = None })
    in
    let check_one label (resp : Gql_server.Protocol.response) =
      match direct, resp with
      | Ok body, Gql_server.Protocol.Ok_ { body = served; _ } ->
        if body = served then Pass
        else failf "%s body differs (%d vs %d bytes)" label (String.length body)
               (String.length served)
      | Error _, Gql_server.Protocol.Err _ -> Pass
      | Ok _, Gql_server.Protocol.Err msg -> failf "%s served ERR: %s" label msg
      | Error e, Gql_server.Protocol.Ok_ _ ->
        failf "%s direct raised where served answered: %s" label e
      | _, Gql_server.Protocol.Timeout _ -> failf "%s timed out" label
    in
    match check_one "cold" (run ()) with
    | Fail _ as f -> f
    | Pass -> check_one "cached" (run ()))

(* ------------------------------------------------------------------ *)
(* (e) sequential vs. domain-parallel evaluation                       *)
(* ------------------------------------------------------------------ *)

let par_domains = 3
(* enough to exercise spawning, chunk hand-off and ordered merge even
   on a small machine; the answer must not depend on the count *)

(* Everything observable about a graph, in deterministic order — node
   kinds plus every edge with its full payload (incl. generation
   stamps), so two fixpoint runs compare byte-for-byte. *)
let graph_fingerprint (data : Gql_data.Graph.t) =
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
  (nodes, List.rev !edges)

let seq_vs_par ~(xml : string) ~(source : string) : verdict =
  match Gql_core.Gql.language_of_source source with
  | `Unknown -> failf "query source has no language header"
  | `Xmlgl -> (
    let run domains =
      capture (fun () ->
          let db = Gql_core.Gql.load_xml_string xml in
          let p = Gql_core.Gql.parse_xmlgl source in
          List.concat_map
            (fun (r : Gql_xmlgl.Ast.rule) ->
              Gql_xmlgl.Engine.query_bindings ~index:(Gql_core.Gql.index db)
                ~domains db.Gql_core.Gql.graph r.Gql_xmlgl.Ast.query)
            p.Gql_xmlgl.Ast.rules)
    in
    match run 1, run par_domains with
    | Ok seq, Ok par ->
      if List.map Array.to_list seq = List.map Array.to_list par then Pass
      else
        failf "xmlgl bindings differ: seq=%d par=%d" (List.length seq)
          (List.length par)
    | Error a, Error b -> if a = b then Pass else failf "errors differ: %s / %s" a b
    | Ok _, Error e -> failf "parallel raised where sequential answered: %s" e
    | Error e, Ok _ -> failf "sequential raised where parallel answered: %s" e)
  | `Match -> (
    (* raw embedding order through both the direct matcher and the
       algebra executor must not depend on the domain count *)
    let run domains =
      capture (fun () ->
          let db = Gql_core.Gql.load_xml_string xml in
          let q = Gql_core.Gql.parse_match source in
          let c = Gql_match.Compile.compile q in
          let index = Gql_core.Gql.index db in
          let data = db.Gql_core.Gql.graph in
          ( List.map Array.to_list (Gql_match.Eval.bindings ~index ~domains data c),
            List.map Array.to_list
              (Gql_match.Eval.bindings_algebra ~index ~domains data c) ))
    in
    match run 1, run par_domains with
    | Ok seq, Ok par ->
      if seq = par then Pass
      else
        failf "match bindings differ: seq=%d/%d par=%d/%d"
          (List.length (fst seq)) (List.length (snd seq))
          (List.length (fst par)) (List.length (snd par))
    | Error a, Error b -> if a = b then Pass else failf "errors differ: %s / %s" a b
    | Ok _, Error e -> failf "parallel raised where sequential answered: %s" e
    | Error e, Ok _ -> failf "sequential raised where parallel answered: %s" e)
  | `Wglog -> (
    (* goal embeddings AND the full fixpoint (stats + derived graph) *)
    let run domains =
      capture (fun () ->
          let db = Gql_core.Gql.load_xml_string xml in
          let p = Gql_core.Gql.parse_wglog source in
          let goals =
            List.concat_map
              (fun r ->
                List.map Array.to_list
                  (Gql_wglog.Eval.goal ~index:(Gql_core.Gql.index db) ~domains
                     db.Gql_core.Gql.graph r))
              p.Gql_wglog.Ast.rules
          in
          let g = Gql_data.Graph.copy db.Gql_core.Gql.graph in
          let stats = Gql_wglog.Eval.run ~domains g p in
          (goals, stats, graph_fingerprint g))
    in
    match run 1, run par_domains with
    | Ok (gs, ss, fs), Ok (gp, sp, fp) ->
      if gs <> gp then
        failf "wglog goal embeddings differ: seq=%d par=%d" (List.length gs)
          (List.length gp)
      else if ss <> sp then
        failf "fixpoint stats differ: seq=%d/%d/%d/%d par=%d/%d/%d/%d"
          ss.Gql_wglog.Eval.rounds ss.embeddings_found ss.nodes_added
          ss.edges_added sp.Gql_wglog.Eval.rounds sp.embeddings_found
          sp.nodes_added sp.edges_added
      else if fs <> fp then Fail "derived graphs differ"
      else Pass
    | Error a, Error b -> if a = b then Pass else failf "errors differ: %s / %s" a b
    | Ok _, Error e -> failf "parallel raised where sequential answered: %s" e
    | Error e, Ok _ -> failf "sequential raised where parallel answered: %s" e)

(* ------------------------------------------------------------------ *)
(* (f) the textual MATCH front-end vs. everything else                 *)
(* ------------------------------------------------------------------ *)

(** Three checks on one generated [MATCH] text:

    - printing the parsed query and re-parsing it must give back the
      same AST, and printing again the same text (pp is a retraction);
    - the canonical result body must be byte-identical along four
      in-process routes that share only the compiled pattern: the direct
      homomorphism matcher with scan candidates, the same with the index
      provider, and the algebra executor with and without the index
      (or all four must reject with the same message);
    - with a transport, the same body must come back from a served
      round-trip, cold and cached ([Rcache] on).

    Routes are compared as rendered text, not embeddings, because the
    rendered body is the public contract of the textual front-end. *)
let match_vs_algebra (transport : transport option) ~(doc_name : string)
    ~(xml : string) ~(source : string) : verdict =
  match Gql_match.Parse.parse_result source with
  | Error msg -> failf "MATCH source does not parse: %s" msg
  | Ok q -> (
    let printed = Gql_match.Pp.query q in
    match Gql_match.Parse.parse_result printed with
    | Error msg -> failf "pretty-printed query does not re-parse: %s" msg
    | Ok q2 when q2 <> q -> Fail "pp roundtrip changed the AST"
    | Ok _ when Gql_match.Pp.query (Gql_match.Parse.parse printed) <> printed ->
      Fail "pp is not idempotent"
    | Ok _ -> (
      match capture (fun () -> Gql_core.Gql.load_xml_string xml) with
      | Error e -> failf "document rejected: %s" e
      | Ok db -> (
        let data = db.Gql_core.Gql.graph in
        let route f =
          capture (fun () ->
              let c = Gql_match.Compile.compile q in
              Gql_match.Eval.body data c (f c))
        in
        let routes =
          [
            ("homo-scan", route (fun c -> Gql_match.Eval.bindings data c));
            ( "homo-indexed",
              route (fun c ->
                  Gql_match.Eval.bindings ~index:(Gql_core.Gql.index db) data c)
            );
            ( "algebra-indexed",
              route (fun c ->
                  Gql_match.Eval.bindings_algebra
                    ~index:(Gql_core.Gql.index db) data c) );
            ( "algebra-noindex",
              route (fun c -> Gql_match.Eval.bindings_algebra data c) );
          ]
        in
        let disagreement =
          match routes with
          | [] -> None
          | (ref_label, ref_res) :: rest ->
            List.find_map
              (fun (label, res) ->
                match ref_res, res with
                | Ok a, Ok b when a = b -> None
                | Error a, Error b when a = b -> None
                | _ ->
                  let s = function Ok _ -> "ok" | Error e -> e in
                  Some
                    (Printf.sprintf "%s and %s disagree (%s / %s)" ref_label
                       label (s ref_res) (s res)))
              rest
        in
        match disagreement with
        | Some msg -> Fail msg
        | None -> (
          match transport with
          | None -> Pass
          | Some t -> (
            match t (Gql_server.Protocol.Load { doc = doc_name; xml }) with
            | Gql_server.Protocol.Err msg -> failf "served LOAD rejected: %s" msg
            | Gql_server.Protocol.Timeout _ -> Fail "LOAD timed out"
            | Gql_server.Protocol.Ok_ _ -> (
              (* the server evaluates MATCH through the algebra over the
                 index: compare against that same route's body *)
              let direct = List.assoc "algebra-indexed" routes in
              let run () =
                t
                  (Gql_server.Protocol.Run
                     {
                       doc = doc_name;
                       query = `Source source;
                       schema = None;
                       deadline_ms = None;
                     })
              in
              let check_one label (resp : Gql_server.Protocol.response) =
                match direct, resp with
                | Ok body, Gql_server.Protocol.Ok_ { body = served; _ } ->
                  if body = served then Pass
                  else
                    failf "%s body differs (%d vs %d bytes)" label
                      (String.length body) (String.length served)
                | Error _, Gql_server.Protocol.Err _ -> Pass
                | Ok _, Gql_server.Protocol.Err msg ->
                  failf "%s served ERR: %s" label msg
                | Error e, Gql_server.Protocol.Ok_ _ ->
                  failf "%s direct raised where served answered: %s" label e
                | _, Gql_server.Protocol.Timeout _ -> failf "%s timed out" label
              in
              match check_one "cold" (run ()) with
              | Fail _ as f -> f
              | Pass -> check_one "cached" (run ())))))))

(* ------------------------------------------------------------------ *)
(* (g) freshly frozen vs. snapshot save/load round-trip                *)
(* ------------------------------------------------------------------ *)

(** Freeze the document's index, save it through {!Gql_data.Store},
    load the file back, and demand that the loaded database answers
    byte-identically to the frozen original:

    - [MATCH] sources run all four routes (homomorphism and algebra,
      each scan and indexed) on both databases — the scan
      routes force the lazy [Digraph] thaw, the indexed routes exercise
      the flat postings planes;
    - XML-GL programs compare rendered result documents;
    - WG-Log programs run the fixpoint on a fork of each graph, and on
      a copy of a freshly parsed graph that was never indexed, and
      compare the statistics and the full derived-graph fingerprint.
      The first two forks start on their parent's index (the frozen one
      and the loaded one); the third builds its own.

    A save or load that raises is a failure in itself — the generator
    only produces documents the store must accept. *)
let loaded_vs_frozen ~(xml : string) ~(source : string) : verdict =
  match Gql_core.Gql.language_of_source source with
  | `Unknown -> failf "query source has no language header"
  | lang -> (
    match capture (fun () -> Gql_core.Gql.load_xml_string xml) with
    | Error e -> failf "document rejected: %s" e
    | Ok frozen ->
      let tmp = Filename.temp_file "gql-fuzz" ".snap" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
        (fun () ->
          match
            capture (fun () ->
                ignore (Gql_data.Store.save ~path:tmp (Gql_core.Gql.index frozen));
                Gql_core.Gql.load_snapshot_file tmp)
          with
          | Error e -> failf "snapshot round-trip rejected: %s" e
          | Ok loaded -> (
            let pair ?(arms = "frozen-vs-loaded") label a b =
              match a, b with
              | Ok x, Ok y when x = y -> None
              | Error x, Error y when x = y -> None
              | _ ->
                let s = function Ok _ -> "ok" | Error e -> e in
                Some (Printf.sprintf "%s differs %s (%s / %s)" label arms (s a) (s b))
            in
            let disagreement =
              match lang with
              | `Xmlgl ->
                let run (db : Gql_core.Gql.db) =
                  capture (fun () ->
                      Gql_core.Gql.to_xml_string
                        (Gql_core.Gql.run_xmlgl db (Gql_core.Gql.parse_xmlgl source)))
                in
                pair "xmlgl result" (run frozen) (run loaded)
              | `Wglog -> (
                let run (db : Gql_core.Gql.db) =
                  capture (fun () ->
                      let g = Gql_data.Graph.copy db.Gql_core.Gql.graph in
                      let fork = Gql_core.Gql.of_graph g in
                      let stats =
                        Gql_core.Gql.run_wglog fork (Gql_core.Gql.parse_wglog source)
                      in
                      ( stats.Gql_wglog.Eval.rounds, stats.embeddings_found,
                        stats.nodes_added, stats.edges_added,
                        graph_fingerprint g ))
                in
                let on_frozen = run frozen in
                match pair "wglog fixpoint" on_frozen (run loaded) with
                | Some _ as d -> d
                | None ->
                  let unindexed =
                    match capture (fun () -> Gql_core.Gql.load_xml_string xml) with
                    | Ok db -> run db
                    | Error _ as e -> e
                  in
                  pair ~arms:"frozen-vs-never-indexed" "wglog fixpoint" on_frozen
                    unindexed)
              | `Match | `Unknown ->
                let routes (db : Gql_core.Gql.db) =
                  let data = db.Gql_core.Gql.graph in
                  let route f =
                    capture (fun () ->
                        let q = Gql_core.Gql.parse_match source in
                        let c = Gql_match.Compile.compile q in
                        Gql_match.Eval.body data c (f c))
                  in
                  [
                    ("homo-scan", route (fun c -> Gql_match.Eval.bindings data c));
                    ( "homo-indexed",
                      route (fun c ->
                          Gql_match.Eval.bindings ~index:(Gql_core.Gql.index db)
                            data c) );
                    ( "algebra-indexed",
                      route (fun c ->
                          Gql_match.Eval.bindings_algebra
                            ~index:(Gql_core.Gql.index db) data c) );
                    ( "algebra-noindex",
                      route (fun c -> Gql_match.Eval.bindings_algebra data c) );
                  ]
                in
                List.find_map
                  (fun ((label, a), (_, b)) -> pair label a b)
                  (List.combine (routes frozen) (routes loaded))
            in
            match disagreement with Some msg -> Fail msg | None -> Pass)))
