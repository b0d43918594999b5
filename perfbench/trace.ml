(* The traced replay: the request stream of a served run, handled again
   in-process through the layers' public functions, with a span
   recorded around each call.

   [handle] mirrors [Gql_server.Server.handle_payload] for the verbs the
   benchmark sends (RUN with a source body, LOAD); its response bytes
   are checked against [Server.handle_payload]'s for every request, so
   the replay cannot drift from server.ml unnoticed.  Spans live in
   memory and are folded into per-name self times when the run ends. *)

open Gql_server

type span = {
  name : string;
  rid : int;  (** request id; -1 for server start-up (preloads) *)
  parent : int;  (** index of the enclosing span, -1 for a root *)
  start : float;
  mutable stop : float;
}

type t = {
  spans : span Gql_graph.Vec.t;
  mutable stack : int list;
  mutable rid : int;
  counts : (string, float * int) Hashtbl.t;  (** per-call engine counts: sum, calls *)
}

let dummy = { name = ""; rid = 0; parent = -1; start = 0.; stop = 0. }

let create () =
  { spans = Gql_graph.Vec.create ~capacity:4096 ~dummy (); stack = []; rid = -1;
    counts = Hashtbl.create 16 }

let span tr name f =
  let parent = match tr.stack with [] -> -1 | p :: _ -> p in
  let id =
    Gql_graph.Vec.push tr.spans
      { name; rid = tr.rid; parent; start = Unix.gettimeofday (); stop = 0. }
  in
  tr.stack <- id :: tr.stack;
  let finish () =
    (Gql_graph.Vec.get tr.spans id).stop <- Unix.gettimeofday ();
    tr.stack <- List.tl tr.stack
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let count tr name v =
  let s, n = Option.value ~default:(0., 0) (Hashtbl.find_opt tr.counts name) in
  Hashtbl.replace tr.counts name (s +. float_of_int v, n + 1)

(* Updates of the server's metrics registry, the per-request
   bookkeeping of [Gql_server.Metrics]. *)
let metrics tr f = span tr "metrics.record" f

(** Mean of a recorded engine count per call, 0 when never recorded. *)
let count_mean tr name =
  match Hashtbl.find_opt tr.counts name with
  | Some (s, n) when n > 0 -> s /. float_of_int n
  | _ -> 0.0

type summary = {
  self_s : (string, float * int) Hashtbl.t;  (** name -> total self seconds, calls *)
  handle_s : float;  (** summed root-span time of requests (rid >= 0) *)
  requests : int;
  stages_s : float;  (** summed self time of the spans under those roots *)
}

(** Self time = span duration minus the time its child spans cover
    (children of one span never overlap: the replay is sequential). *)
let summarise tr =
  let n = Gql_graph.Vec.length tr.spans in
  let child = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let s = Gql_graph.Vec.get tr.spans i in
    if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. (s.stop -. s.start)
  done;
  let self_s = Hashtbl.create 32 in
  let handle = ref 0.0 and root_self = ref 0.0 and requests = ref 0 in
  for i = 0 to n - 1 do
    let s = Gql_graph.Vec.get tr.spans i in
    let self = s.stop -. s.start -. child.(i) in
    let tot, calls = Option.value ~default:(0., 0) (Hashtbl.find_opt self_s s.name) in
    Hashtbl.replace self_s s.name (tot +. self, calls + 1);
    if s.parent < 0 && s.rid >= 0 then begin
      handle := !handle +. (s.stop -. s.start);
      root_self := !root_self +. self;
      incr requests
    end
  done;
  { self_s; handle_s = !handle; requests = !requests; stages_s = !handle -. !root_self }

(** Mean self time per call of span [name], in seconds (0 if never). *)
let self_mean sm name =
  match Hashtbl.find_opt sm.self_s name with
  | Some (tot, calls) when calls > 0 -> tot /. float_of_int calls
  | _ -> 0.0

(* ------------------------------------------------------------------ *)
(* The replayed server                                                  *)
(* ------------------------------------------------------------------ *)

(* Registry.load_xml with the index build as its own span. *)
let load_xml tr reg ~name xml =
  let key = "xml-" ^ Digest.to_hex (Digest.string xml) in
  match Registry.find_keyed reg name key with
  | Some snap -> Ok snap
  | None -> (
    match Gql_core.Gql.load_xml_string xml with
    | exception Gql_core.Gql.Error msg -> Error msg
    | db -> (
      match Registry.find_keyed reg name key with
      | Some snap -> Ok snap
      | None ->
        let index =
          span tr "index.build" (fun () -> Gql_data.Index.build db.Gql_core.Gql.graph)
        in
        Ok (Registry.install reg name key db index)))

(* Registry.load_snapshot with the store calls as their own spans. *)
let load_snapshot tr reg ~name path =
  let key = span tr "store.file_key" (fun () -> Gql_data.Store.file_key path) in
  match Registry.find_keyed reg name key with
  | Some snap -> snap
  | None ->
    let graph, index = span tr "store.load" (fun () -> Gql_data.Store.load ~path) in
    Registry.install reg name key (Gql_core.Gql.of_snapshot graph index) index

(** Server start-up: what `gql serve -d` does for each file. *)
let preload tr (t : Server.t) (docs : Workload.doc list) =
  tr.rid <- -1;
  span tr "server.preload" (fun () ->
      List.iter
        (fun (d : Workload.doc) ->
          if d.Workload.snap then
            ignore
              (span tr "registry.load_snapshot" (fun () ->
                   load_snapshot tr (Server.registry t) ~name:d.name d.path))
          else
            match
              span tr "registry.load" (fun () ->
                  load_xml tr (Server.registry t) ~name:d.name (Workload.read_file d.path))
            with
            | Ok _ -> ()
            | Error msg -> failwith ("replay preload: " ^ msg))
        docs)

let evaluate tr (t : Server.t) (snap : Registry.snapshot) (entry : Qcache.entry) =
  let domains = Gql_graph.Par.auto_domains () in
  let graph = snap.Registry.db.Gql_core.Gql.graph in
  match entry.Qcache.prepared with
  | Qcache.Xmlgl p ->
    let result =
      span tr "xmlgl.run" (fun () ->
          Gql_xmlgl.Engine.run_program ~index:snap.Registry.index ~domains graph p)
    in
    let body = span tr "xmlgl.render" (fun () -> Gql_core.Gql.to_xml_string result) in
    let hits = List.length result.Gql_xml.Tree.children in
    count tr "xmlgl.hits" hits;
    (Printf.sprintf "lang=xmlgl hits=%d" hits, body)
  | Qcache.Wglog p ->
    let g = span tr "registry.fork" (fun () -> Registry.fork snap) in
    let stats = span tr "wglog.run" (fun () -> Gql_wglog.Eval.run ~domains g p) in
    count tr "wglog.rounds" stats.Gql_wglog.Eval.rounds;
    count tr "wglog.embeddings" stats.Gql_wglog.Eval.embeddings_found;
    count tr "wglog.edges_added" stats.Gql_wglog.Eval.edges_added;
    ( Printf.sprintf "lang=wglog derived_edges=%d" stats.Gql_wglog.Eval.edges_added,
      Server.wglog_stats_line stats )
  | Qcache.Match q ->
    let key =
      { Pcache.doc = snap.Registry.name; version = snap.Registry.version;
        qhash = entry.Qcache.hash }
    in
    let prepared =
      match span tr "pcache.find" (fun () -> Pcache.find t.Server.pcache key) with
      | Some prepared ->
        metrics tr (fun () -> Metrics.incr t.Server.metrics.Metrics.plan_hits);
        prepared
      | None ->
        metrics tr (fun () -> Metrics.incr t.Server.metrics.Metrics.plan_misses);
        let prepared =
          span tr "match.prepare" (fun () ->
              Gql_match.Eval.prepare ~index:snap.Registry.index graph q)
        in
        span tr "pcache.add" (fun () -> Pcache.add t.Server.pcache key prepared);
        prepared
    in
    let body, rows =
      span tr "match.run" (fun () -> Gql_match.Eval.run_prepared ~domains graph prepared)
    in
    count tr "match.rows" rows;
    (Printf.sprintf "lang=match rows=%d" rows, body)

let intern tr (t : Server.t) ~schema src =
  let qc = t.Server.qcache in
  let hash = Qcache.hash_of ~schema src in
  match
    span tr "qcache.probe" (fun () ->
        Qcache.locked qc (fun () -> Hashtbl.find_opt qc.Qcache.by_hash hash))
  with
  | Some e -> Ok (e, true)
  | None -> (
    match span tr "qcache.parse" (fun () -> Qcache.parse ~schema src) with
    | Error _ as err -> err
    | Ok e -> Ok (span tr "qcache.insert" (fun () -> Qcache.locked qc (fun () -> Qcache.insert qc e)), false))

let handle_request tr (t : Server.t) (req : Protocol.request) ~started =
  let m = t.Server.metrics in
  let find doc = span tr "registry.find" (fun () -> Registry.find t.Server.registry doc) in
  let no_doc doc = Protocol.Err (Printf.sprintf "no document %S (LOAD it first)" doc) in
  match req with
  | Protocol.Load { doc; xml } -> (
    let prior = find doc in
    match span tr "registry.load" (fun () -> load_xml tr t.Server.registry ~name:doc xml) with
    | Error msg -> Protocol.Err msg
    | Ok snap ->
      metrics tr (fun () -> Metrics.incr m.Metrics.loads);
      let reused =
        match prior with
        | Some p -> p.Registry.version = snap.Registry.version
        | None -> false
      in
      if not reused then begin
        span tr "rcache.purge" (fun () ->
            Option.iter (fun rc -> Rcache.purge_doc rc doc) t.Server.rcache);
        span tr "pcache.purge" (fun () -> Pcache.purge_doc t.Server.pcache doc)
      end;
      Protocol.Ok_
        { info =
            Printf.sprintf "doc=%s version=%d nodes=%d edges=%d" snap.Registry.name
              snap.Registry.version snap.Registry.nodes snap.Registry.edges;
          body = "" })
  | Protocol.Run { doc; query = `Source src; schema; deadline_ms = None } -> (
    match find doc with
    | None -> no_doc doc
    | Some snap -> (
      match intern tr t ~schema src with
      | Error msg -> Protocol.Err msg
      | Ok (entry, hit) ->
        metrics tr (fun () ->
            Metrics.incr (if hit then m.Metrics.prepared_hits else m.Metrics.prepared_misses);
            Metrics.incr m.Metrics.runs);
        let info, body =
          match t.Server.rcache with
          | None ->
            metrics tr (fun () -> Metrics.incr m.Metrics.result_misses);
            evaluate tr t snap entry
          | Some rc -> (
            let key = Server.cache_key snap entry "run" in
            match span tr "rcache.find" (fun () -> Rcache.find rc key) with
            | Some (info, body) ->
              metrics tr (fun () -> Metrics.incr m.Metrics.result_hits);
              ((if info = "" then "cached" else info ^ " cached"), body)
            | None ->
              metrics tr (fun () -> Metrics.incr m.Metrics.result_misses);
              let info, body = evaluate tr t snap entry in
              span tr "rcache.add" (fun () -> Rcache.add rc key ~info body);
              (info, body))
        in
        let elapsed_ms = (Unix.gettimeofday () -. started) *. 1000.0 in
        Protocol.Ok_ { info = Printf.sprintf "%s ms=%.2f" info elapsed_ms; body }))
  | _ -> invalid_arg "Trace.handle: the benchmark replays only LOAD and RUN <doc> <source>"

(** The replay of one request: [Server.handle_payload] with spans.
    [thaw] names a document whose lazily mapped snapshot graph the
    server thawed while answering this request (somewhere inside an
    engine call); the replay thaws it first, under its own span. *)
let handle ?thaw tr (t : Server.t) ~rid payload =
  tr.rid <- rid;
  span tr "server.handle" (fun () ->
      Option.iter
        (fun doc ->
          Option.iter
            (fun snap ->
              let g = snap.Registry.db.Gql_core.Gql.graph in
              if not (Gql_data.Graph.forced g) then
                span tr "graph.thaw" (fun () -> ignore (Gql_data.Graph.digraph g)))
            (Registry.find t.Server.registry doc))
        thaw;
      let started = Unix.gettimeofday () in
      let m = t.Server.metrics in
      metrics tr (fun () -> Metrics.incr m.Metrics.requests);
      let response =
        match span tr "protocol.decode" (fun () -> Protocol.parse_request payload) with
        | req -> (
          try handle_request tr t req ~started with
          | Gql_core.Gql.Error msg | Failure msg -> Protocol.Err msg
          | Protocol.Protocol_error msg -> Protocol.Err msg
          | Gql_wglog.Eval.Invalid_query msg
          | Gql_xmlgl.Construct.Invalid_query msg
          | Gql_match.Compile.Error msg ->
            Protocol.Err ("invalid query: " ^ msg)
          | Gql_xmlgl.Engine.Ill_formed errs ->
            Protocol.Err ("invalid query: " ^ String.concat "; " errs)
          | Invalid_argument msg -> Protocol.Err ("invalid request: " ^ msg)
          | exn -> Protocol.Err ("internal error: " ^ Printexc.to_string exn))
        | exception Protocol.Protocol_error msg -> Protocol.Err msg
      in
      metrics tr (fun () ->
          (match response with
          | Protocol.Err _ -> Metrics.incr m.Metrics.errors
          | Protocol.Timeout _ | Protocol.Ok_ _ -> ());
          Metrics.observe m.Metrics.latency
            ~us:(int_of_float ((Unix.gettimeofday () -. started) *. 1e6)));
      span tr "protocol.encode" (fun () -> Protocol.render_response response))
