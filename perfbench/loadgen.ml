(* The served-query benchmark: drives a real `gql serve` process over its
   Unix socket and prints one JSON result line.

     loadgen.exe --workload hot-mix|adhoc-mix|cold-large --seed N
                 --seconds S --trace 0|1 --gql PATH

   --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
   ones (perfbench/README.md lists both, with the end-to-end metric and
   workload each layer metric should move).  Every run checks the
   answers against an in-process reference, and that the workload
   exercised the mechanism it exists for; a wrong answer or a failed
   self-check ends the run with exit code 1. *)

open Gql_server

let now = Unix.gettimeofday

(* Closed-loop connections of hot-mix: at most one per core, and two on
   the two-core host the benchmark was written on.  adhoc-mix runs one:
   with two, each connection's requests stall on the other's heavy
   queries (the server's domains share a stop-the-world minor heap
   collection), and the per-language medians of its mixed traffic then
   moved by a third from seed to seed on that host. *)
let hot_connections = max 1 (min 2 (Domain.recommended_domain_count ()))
let adhoc_connections = 1
(* Server spawns per run of the mixed workloads: the medians over spawns
   of first_answer_ms, batch_s and setup_s take that many samples.  A
   hot-mix spawn is cheap, so it takes more. *)
let hot_spawns = 41
let adhoc_spawns = 21
let cold_min_restarts = 6
(* Probe LOADs per spawn (hot-mix) and per restart (cold-large), which
   carry load_p50_ms there: every run reports every end-to-end metric.
   adhoc-mix takes it from the inbox LOADs of its timed window. *)
let probe_loads = 5
let cold_probe_loads = 15
let hot_warm_s = 1.0
(* The timed window of the mixed workloads is cut into this many
   segments, with the other spawns run between them, so it samples the
   host's speed over the whole run and not over one stretch of it. *)
let segments = 5

(* Stated bound on the unexplained time: the replay's stage self-times,
   summed over the record spawn's stream, must come within this share
   of the time [Server.handle_payload] takes on the same stream. *)
let residual_limit = 0.25

type args = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  gql : string;
}

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let gql = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "hot-mix | adhoc-mix | cold-large");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_int seconds, "S  measured seconds");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end or per-layer metrics");
      ("--gql", Arg.Set_string gql, "PATH  the gql executable to serve with");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "loadgen.exe --workload W --seed N --seconds S --trace 0|1 --gql PATH";
  if not (List.mem !workload [ "hot-mix"; "adhoc-mix"; "cold-large" ]) then
    failwith ("unknown --workload " ^ !workload);
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) || !gql = "" then
    failwith "need --seed N>=0, --seconds S>=1, --trace 0|1 and --gql PATH";
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1;
    gql = !gql }

(* ------------------------------------------------------------------ *)
(* One run: spawns, batches, probes, the timed window                  *)
(* ------------------------------------------------------------------ *)

type run = {
  docs : Workload.doc list;
  mutable log : Served.log_entry list;  (** newest first *)
  mutable setup : float list;
  mutable first_answer : float list;
  mutable batch : float list;
  mutable timed : Served.sample list;  (** the samples latency metrics use *)
  mutable timed_s : float;  (** the seconds [timed] took *)
  mutable rss : float list;
  mutable loads : float list;  (** the LOAD latencies load_p50_ms uses *)
  mutable window : (string * int) list;  (** METRICS deltas, summed over windows *)
  mutable frontier_peak : int;  (** highest path_frontier_peak a server reported *)
  mutable failures : string list;  (** failed mechanism self-checks *)
  share : string -> float;  (** the traffic model's share of each request kind *)
}

let next_rid = ref 0

let fresh_rid () =
  let r = !next_rid in
  incr next_rid;
  r

let add_log r ~spawn_no samples =
  List.iter (fun s -> r.log <- { Served.sample = s; spawn_no } :: r.log) samples

let is_run = function Workload.Run _ -> true | Workload.Load _ -> false

let add_window r ~before ~after =
  r.frontier_peak <- max r.frontier_peak (Served.counter after "path_frontier_peak");
  let d = List.map (fun (k, _) -> (k, Served.delta ~before ~after k)) after in
  r.window <-
    (if r.window = [] then d
     else List.map (fun (k, v) -> (k, v + (try List.assoc k d with Not_found -> 0))) r.window)

let check r name ok = if not ok then r.failures <- name :: r.failures

(* The fixed batch a fresh server answers first: the first RUN answer
   gives first_answer, the whole batch batch_s. *)
let run_batch r c ~spawn_no ~ready_at reqs =
  let t0 = now () in
  let samples = List.map (fun req -> Served.one c ~rid:(fresh_rid ()) (req, Workload.payload req)) reqs in
  let t1 = now () in
  add_log r ~spawn_no samples;
  (match List.find_opt (fun (s : Served.sample) -> is_run s.req) samples with
  | Some s -> r.first_answer <- (s.sent +. s.lat -. ready_at) :: r.first_answer
  | None -> ());
  r.batch <- (t1 -. t0) :: r.batch;
  samples

(* LOADs of new content under the name "probe": the write path on every
   workload, outside any timed window. *)
let run_probe r c ~seed ~spawn_no ~count =
  let reqs =
    List.init count (fun j ->
        Workload.Load
          { doc = "probe";
            xml = Workload.fresh_bibliography ~seed:((seed * 16) + 15)
                    ~version:((spawn_no * count) + j) 100 })
  in
  let samples = List.map (fun req -> Served.one c ~rid:(fresh_rid ()) (req, Workload.payload req)) reqs in
  add_log r ~spawn_no samples;
  r.loads <- List.map (fun (s : Served.sample) -> s.lat) samples @ r.loads

let new_run ?(share = fun _ -> 1.0) docs =
  { share; docs; log = []; setup = []; first_answer = []; batch = []; timed = []; timed_s = 0.0;
    rss = []; loads = []; window = []; frontier_peak = 0; failures = [] }

let files docs = List.map (fun (d : Workload.doc) -> d.Workload.path) docs

(* hot-mix and adhoc-mix: [spawns] spawns, each answering the batch
   (and, with [probe], the probe LOADs).  The first spawn also serves the
   timed window, [seconds] long in [segments] segments; the other spawns
   run between the segments while it idles.  The replay reproduces the
   first spawn. *)
let run_mixed a ~dir ~docs ~share ~spawns ~batch ~streams ~warm ~dedup ~probe =
  let r = new_run ~share docs in
  let serve i =
    let s, c, ready = Served.spawn ~gql:a.gql ~dir (files docs) in
    let ready_at = now () in
    r.setup <- ready :: r.setup;
    ignore (run_batch r c ~spawn_no:i ~ready_at batch);
    if probe then run_probe r c ~seed:a.seed ~spawn_no:i ~count:probe_loads;
    (* The server gives each connection a worker domain for the
       connection's lifetime: an idle control connection left open
       would keep one of the load connections queued. *)
    Client.close c;
    s
  in
  let w = serve 0 in
  let loop until =
    let res = Served.closed_loop ~sock:w.Served.sock ~until ~dedup streams ~next_rid in
    Array.iter (add_log r ~spawn_no:0) res;
    List.concat (Array.to_list res)
  in
  if warm > 0.0 then ignore (loop (now () +. warm));
  let segment_s = float_of_int a.seconds /. float_of_int segments in
  let next = ref 1 in
  for j = 1 to segments do
    let before = Served.counters_once w in
    let t0 = now () in
    let samples = loop (t0 +. segment_s) in
    let last =
      List.fold_left (fun m (s : Served.sample) -> Float.max m (s.sent +. s.lat)) t0 samples
    in
    let after = Served.counters_once w in
    r.timed <- samples @ r.timed;
    r.timed_s <- r.timed_s +. (last -. t0);
    add_window r ~before ~after;
    if j = segments then r.rss <- [ Served.peak_rss_mb w ];
    (* spawns 1 .. spawns - 1, an equal share after each segment *)
    while !next < j * (spawns - 1) / segments + 1 do
      Served.stop (serve !next);
      incr next
    done
  done;
  Served.stop w;
  r

let hot_mix a ~dir =
  let docs = Workload.suite_docs dir ~seed:a.seed ~scale:1 in
  let streams = Array.init hot_connections (fun k -> Workload.hot_stream ~seed:a.seed ~conn:k) in
  let r =
    run_mixed a ~dir ~docs ~spawns:hot_spawns ~batch:Workload.hot_batch ~streams ~warm:hot_warm_s
      ~share:Workload.hot_share ~dedup:true ~probe:true
  in
  let d k = try List.assoc k r.window with Not_found -> 0 in
  check r "hot-mix: result-cache hit ratio >= 0.99 on RUNs"
    (d "runs" > 0 && Stats.ratio (d "result_cache_hits") (d "runs") >= 0.99);
  check r "hot-mix: no LOADs in the timed window" (d "loads" = 0);
  r

(* Inbox versions generated ahead per connection and timed second:
   about twice the LOAD rate measured on a two-core host. *)
let adhoc_pool_per_s = 4

let adhoc_mix a ~dir =
  let docs = Workload.suite_docs dir ~seed:a.seed ~scale:4 in
  let pool = 4 + (adhoc_pool_per_s * a.seconds) in
  let streams =
    Array.init adhoc_connections (fun k -> Workload.adhoc_stream ~seed:a.seed ~conn:k ~pool)
  in
  let r =
    run_mixed a ~dir ~docs ~spawns:adhoc_spawns ~batch:Workload.adhoc_batch ~streams ~warm:0.0
      ~share:Workload.adhoc_share ~dedup:false ~probe:false
  in
  r.loads <-
    List.filter_map
      (fun (s : Served.sample) -> if is_run s.req then None else Some s.lat)
      r.timed;
  let d k = try List.assoc k r.window with Not_found -> 0 in
  check r "adhoc-mix: no result-cache hits" (d "result_cache_hits" = 0);
  check r "adhoc-mix: no plan-cache hits" (d "plan_cache_hits" = 0);
  check r "adhoc-mix: no prepared-cache hits" (d "prepared_cache_hits" = 0);
  check r "adhoc-mix: LOADs in the timed window" (d "loads" > 0);
  r

(* cold-large: restart `gql serve` on the .snap until [seconds] have
   passed (at least [cold_min_restarts] times); each restart answers the
   fixed batch once and stops. *)
let cold_large a ~dir =
  let big = Workload.snap_doc dir "large" (Workload.large_graph ~seed:a.seed) in
  let r = new_run [ big ] in
  let t_end = now () +. float_of_int a.seconds in
  let i = ref 0 in
  while !i < cold_min_restarts || now () < t_end do
    let s, c, ready = Served.spawn ~gql:a.gql ~dir [ big.Workload.path ] in
    let ready_at = now () in
    r.setup <- ready :: r.setup;
    let before = Served.counters c in
    let samples = run_batch r c ~spawn_no:!i ~ready_at Workload.large_batch in
    let after = Served.counters c in
    r.timed <- samples @ r.timed;
    r.timed_s <- r.timed_s +. List.hd r.batch;
    check r "cold-large: snapshot_loads = 1 per restart" (Served.counter after "snapshot_loads" = 1);
    check r "cold-large: no result-cache hits" (Served.counter after "result_cache_hits" = 0);
    add_window r ~before ~after;
    run_probe r c ~seed:a.seed ~spawn_no:!i ~count:cold_probe_loads;
    r.rss <- Served.peak_rss_mb s :: r.rss;
    Client.close c;
    Served.stop s;
    incr i
  done;
  r

(* ------------------------------------------------------------------ *)
(* Correctness and the traced replay                                    *)
(* ------------------------------------------------------------------ *)

let is_ms_token = String.starts_with ~prefix:"ms="

(* Response bytes minus the server-side timing, which no two
   executions share. *)
let strip_ms response =
  let head, body = Protocol.split response in
  let head =
    String.concat " " (List.filter (fun tok -> not (is_ms_token tok)) (String.split_on_char ' ' head))
  in
  Protocol.join head body

let ok_body response =
  match Protocol.parse_response response with
  | Protocol.Ok_ { body; _ } -> Some body
  | Protocol.Err _ | Protocol.Timeout _ -> None

let served_body (s : Served.sample) =
  match Protocol.parse_response s.head with
  | Protocol.Ok_ _ -> Some s.body
  | Protocol.Err _ | Protocol.Timeout _ -> None

type verdict = {
  attempted : int;
  failed : int;
  mismatches : string list;
  trace : (Trace.t * Trace.summary) option;
  replay_diffs : int;
  untraced_handle_s : float;
      (** [handle_payload] time over the record spawn's stream, untraced *)
}

let in_process () =
  Server.create ~config:{ Server.default_config with workers = Some 1 } ()

let preload_reference (t : Server.t) docs =
  List.iter
    (fun (d : Workload.doc) ->
      let res =
        if d.Workload.snap then Registry.load_snapshot (Server.registry t) ~name:d.name d.path
        else Registry.load_xml (Server.registry t) ~name:d.name (Workload.read_file d.path)
      in
      match res with Ok _ -> () | Error m -> failwith ("reference preload: " ^ m))
    docs

(* The spawn whose whole stream the replay reproduces: the window's
   server on the mixed workloads, the first restart on cold-large. *)
let record_spawn = 0

(* Every response is compared with [Server.handle_payload] on an
   in-process server holding the same documents, after all timing is
   over.  The record spawn's stream goes first, on a fresh server (and,
   traced, through the replay on a second fresh server, request by
   request); other spawns reuse the record's answers for repeated
   texts and otherwise continue on the same reference server. *)
let verify r ~traced =
  let entries = List.rev r.log in
  let record, rest =
    List.partition (fun (e : Served.log_entry) -> e.spawn_no = record_spawn) entries
  in
  let by_rid l =
    List.sort (fun (x : Served.log_entry) y -> compare x.sample.rid y.sample.rid) l
  in
  let repeated = Hashtbl.create 64 in
  List.iter
    (fun (e : Served.log_entry) ->
      let p = e.sample.payload in
      Hashtbl.replace repeated p (1 + Option.value ~default:0 (Hashtbl.find_opt repeated p)))
    entries;
  let memo = Hashtbl.create 64 in
  let reference = in_process () in
  preload_reference reference r.docs;
  let replay =
    if traced then begin
      let tr = Trace.create () and t = in_process () in
      Trace.preload tr t r.docs;
      Some (tr, t)
    end
    else None
  in
  let failed = ref 0 and mismatches = ref [] and replay_diffs = ref 0 and untraced = ref 0.0 in
  let judge (e : Served.log_entry) expected =
    match served_body e.sample, expected with
    | Some got, Some want when got = want -> ()
    | got, _ ->
      incr failed;
      mismatches :=
        Printf.sprintf "request %d (%s, spawn %d): %s" e.sample.rid
          (match e.sample.req with
          | Workload.Run { lang; doc; _ } -> Workload.lang_name lang ^ " RUN on " ^ doc
          | Workload.Load { doc; _ } -> "LOAD " ^ doc)
          e.spawn_no
          (if got = None then "server answered " ^ e.sample.head
           else "body differs from the in-process reference")
        :: !mismatches
  in
  let reference_answer (e : Served.log_entry) ~record =
    let p = e.sample.payload in
    match if record then None else Hashtbl.find_opt memo p with
    | Some body -> body
    | None ->
      let graph () =
        match e.sample.req with
        | Workload.Run { doc; _ } ->
          Option.map
            (fun snap -> snap.Registry.db.Gql_core.Gql.graph)
            (Registry.find (Server.registry reference) doc)
        | Workload.Load _ -> None
      in
      let unforced = Option.map Gql_data.Graph.forced (graph ()) = Some false in
      let t0 = now () in
      let resp = Server.handle_payload reference p in
      if record then untraced := !untraced +. (now () -. t0);
      let thaw =
        match e.sample.req with
        | Workload.Run { doc; _ } when unforced && Option.map Gql_data.Graph.forced (graph ()) = Some true ->
          Some doc
        | _ -> None
      in
      (match replay with
      | Some (tr, t) when record ->
        let replayed = Trace.handle ?thaw tr t ~rid:e.sample.rid p in
        if strip_ms replayed <> strip_ms resp then begin
          incr replay_diffs;
          if !replay_diffs <= 10 then
            Printf.eprintf "replay differs from Server.handle_payload on request %d\n%!" e.sample.rid
        end
      | _ -> ());
      let body = ok_body resp in
      if is_run e.sample.req && Hashtbl.find repeated p > 1 then Hashtbl.replace memo p body;
      body
  in
  List.iter (fun e -> judge e (reference_answer e ~record:true)) (by_rid record);
  List.iter (fun e -> judge e (reference_answer e ~record:false)) (by_rid rest);
  Server.stop reference;
  let trace =
    Option.map
      (fun (tr, t) ->
        Server.stop t;
        (tr, Trace.summarise tr))
      replay
  in
  { attempted = List.length entries; failed = !failed; mismatches = List.rev !mismatches;
    trace; replay_diffs = !replay_diffs; untraced_handle_s = !untraced }

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

let lang_of (s : Served.sample) =
  match s.req with Workload.Run { lang; _ } -> Some lang | Workload.Load _ -> None

let ms x = x *. 1000.0

let end_to_end r =
  (* Latency quantiles are taken for the traffic model's mix: a sample
     weighs its kind's model share over the count of its kind among the
     samples at hand, so how many of each kind the seed's draws happened
     to send does not move them. *)
  let model_quantile q (l : Served.sample list) =
    let counts = Hashtbl.create 32 in
    List.iter
      (fun (s : Served.sample) ->
        let k = Workload.kind s.req in
        Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
      l;
    Stats.weighted_quantile q
      (List.map
         (fun (s : Served.sample) ->
           let k = Workload.kind s.req in
           (ms s.lat, r.share k /. float_of_int (Hashtbl.find counts k)))
         l)
  in
  let quantile q = model_quantile q r.timed in
  let lang_p50 lang = model_quantile 0.5 (List.filter (fun s -> lang_of s = Some lang) r.timed) in
  [
    ("rps", float_of_int (List.length r.timed) /. r.timed_s, "req/s");
    ("p50_ms", quantile 0.5, "ms");
    ("p90_ms", quantile 0.9, "ms");
    ("xmlgl_p50_ms", lang_p50 Workload.Xmlgl, "ms");
    ("wglog_p50_ms", lang_p50 Workload.Wglog, "ms");
    ("match_p50_ms", lang_p50 Workload.Match, "ms");
    ("load_p50_ms", ms (Stats.median r.loads), "ms");
    ("first_answer_ms", ms (Stats.median r.first_answer), "ms");
    ("batch_s", Stats.median r.batch, "s");
    ("setup_s", Stats.median r.setup, "s");
    ("rss_mb", Stats.median r.rss, "MB");
  ]

(* Server time of a RUN as its `ms=` info reports it. *)
let server_ms (s : Served.sample) =
  match Protocol.parse_response s.head with
  | Protocol.Ok_ { info; _ } ->
    List.find_map
      (fun tok ->
        if is_ms_token tok then float_of_string_opt (String.sub tok 3 (String.length tok - 3))
        else None)
      (String.split_on_char ' ' info)
  | _ -> None

let per_layer r (v : verdict) =
  let tr, sm = match v.trace with Some x -> x | None -> failwith "per-layer metrics need the replay" in
  let us name = Trace.self_mean sm name *. 1e6 and msec name = Trace.self_mean sm name *. 1e3 in
  let w k = try List.assoc k r.window with Not_found -> 0 in
  let requests = max 1 (List.length r.timed) in
  let per_req k = float_of_int (w k) /. float_of_int requests in
  let hit h m = Stats.ratio (w h) (w h + w m) in
  let wire =
    List.filter_map
      (fun (s : Served.sample) -> Option.map (fun sms -> (s.lat *. 1e6) -. (sms *. 1e3)) (server_ms s))
      r.timed
  in
  let per_request_us x = x /. float_of_int (max 1 sm.Trace.requests) *. 1e6 in
  [
    ("client.wire_us", Stats.mean wire, "us");
    ("protocol.decode_us", us "protocol.decode", "us");
    ("protocol.encode_us", us "protocol.encode", "us");
    ( "protocol.response_bytes",
      Stats.mean
        (List.map
           (fun (s : Served.sample) -> float_of_int (String.length s.head + 1 + String.length s.body))
           r.timed),
      "bytes" );
    ("registry.find_us", us "registry.find", "us");
    ("registry.load_ms", msec "registry.load", "ms");
    ("registry.load_snapshot_us", us "registry.load_snapshot", "us");
    ("registry.fork_ms", msec "registry.fork", "ms");
    ("qcache.hit_ratio", hit "prepared_cache_hits" "prepared_cache_misses", "ratio");
    ("qcache.probe_us", us "qcache.probe", "us");
    ("qcache.parse_us", us "qcache.parse", "us");
    ("qcache.insert_us", us "qcache.insert", "us");
    ("rcache.hit_ratio", hit "result_cache_hits" "result_cache_misses", "ratio");
    ("rcache.find_us", us "rcache.find", "us");
    ("rcache.add_us", us "rcache.add", "us");
    ("rcache.purge_us", us "rcache.purge", "us");
    ("pcache.hit_ratio", hit "plan_cache_hits" "plan_cache_misses", "ratio");
    ("pcache.find_us", us "pcache.find", "us");
    ("pcache.add_us", us "pcache.add", "us");
    ("pcache.purge_us", us "pcache.purge", "us");
    ("match.prepare_us", us "match.prepare", "us");
    ("match.run_us", us "match.run", "us");
    ("match.rows", Trace.count_mean tr "match.rows", "count");
    ("xmlgl.run_ms", msec "xmlgl.run", "ms");
    ("xmlgl.render_ms", msec "xmlgl.render", "ms");
    ("xmlgl.hits", Trace.count_mean tr "xmlgl.hits", "count");
    ("wglog.run_ms", msec "wglog.run", "ms");
    ("wglog.rounds", Trace.count_mean tr "wglog.rounds", "count");
    ("wglog.embeddings", Trace.count_mean tr "wglog.embeddings", "count");
    ("wglog.edges_added", Trace.count_mean tr "wglog.edges_added", "count");
    ("index.build_ms", msec "index.build", "ms");
    ("store.file_key_ms", msec "store.file_key", "ms");
    ("store.load_ms", msec "store.load", "ms");
    ( "store.bytes",
      float_of_int
        (List.fold_left (fun acc (d : Workload.doc) -> if d.snap then acc + d.bytes else acc) 0 r.docs),
      "bytes" );
    ("graph.thaw_ms", msec "graph.thaw", "ms");
    ("path.searches", per_req "path_searches", "count/req");
    ("path.frontier_peak", float_of_int r.frontier_peak, "count");
    ("path.memo_hits", per_req "path_memo_hits", "count/req");
    ("path.memo_misses", per_req "path_memo_misses", "count/req");
    ("par.jobs", per_req "par_jobs", "count/req");
    ("par.chunks", per_req "par_chunks", "count/req");
    ("par.stolen", per_req "par_chunks_stolen", "count/req");
    ("par.seq_below_cutoff", per_req "par_seq_below_cutoff", "count/req");
    ("par.seq_solo", per_req "par_seq_solo", "count/req");
    ("metrics.record_us", us "metrics.record", "us");
    ("server.handle_us", per_request_us v.untraced_handle_s, "us");
    ("server.residual_us", per_request_us (v.untraced_handle_s -. sm.Trace.stages_s), "us");
    ("server.traced_handle_us", per_request_us sm.Trace.handle_s, "us");
  ]

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

(* Recorded with every result; run.py adds the host's nproc and the
   source commit on its own line. *)
let config_line a r =
  let n k v = (k, string_of_int v) and s k v = (k, Stats.json_string v) in
  Stats.json_object
    [
      s "workload" a.workload; n "seed" a.seed; n "seconds" a.seconds;
      n "trace" (if a.trace then 1 else 0);
      n "recommended_domain_count" (Domain.recommended_domain_count ());
      s "ocaml_version" Sys.ocaml_version;
      n "server_workers" (Pool.default_size ());
      n "connections"
        (match a.workload with "hot-mix" -> hot_connections | "adhoc-mix" -> adhoc_connections | _ -> 1);
      n "spawns" (List.length r.setup);
      ( "documents",
        "["
        ^ String.concat ", "
            (List.map
               (fun (d : Workload.doc) ->
                 Stats.json_object
                   [ s "name" d.name; s "format" (if d.snap then "snap" else "xml");
                     n "nodes" d.nodes; n "edges" d.edges; n "bytes" d.bytes ])
               r.docs)
        ^ "]" );
    ]

(* One run; the exit code. *)
let run a ~dir =
  let r =
    match a.workload with
    | "hot-mix" -> hot_mix a ~dir
    | "adhoc-mix" -> adhoc_mix a ~dir
    | _ -> cold_large a ~dir
  in
  let v = verify r ~traced:a.trace in
  List.iter (fun m -> Printf.printf "MISMATCH %s\n" m) v.mismatches;
  if v.replay_diffs > 0 then
    r.failures <- Printf.sprintf "replay differs from Server.handle_payload on %d requests" v.replay_diffs :: r.failures;
  let metrics =
    if a.trace then begin
      let m = per_layer r v in
      let get k = let _, x, _ = List.find (fun (n, _, _) -> n = k) m in x in
      if Float.abs (get "server.residual_us") > residual_limit *. get "server.handle_us" then
        r.failures <-
          Printf.sprintf
            "replay stages leave %.1f us per request unexplained, over %.0f%% of the %.1f us \
             Server.handle_payload takes"
            (get "server.residual_us") (100. *. residual_limit) (get "server.handle_us")
          :: r.failures;
      m
    end
    else end_to_end r
  in
  Printf.printf "# config %s\n" (config_line a r);
  List.iter (fun (n, x, u) -> Printf.printf "# %-28s %14.4f %s\n" n x u) metrics;
  List.iter (fun f -> Printf.printf "SELF-CHECK FAILED: %s\n" f) (List.rev r.failures);
  let correct = v.failed = 0 && r.failures = [] in
  print_endline (Stats.result_line ~correct ~attempted:v.attempted ~failed:v.failed metrics);
  if r.failures <> [] || v.failed > 0 then 1 else 0

let main () =
  let a = parse_args () in
  let work = ".perfbench_work" in
  let dir = Filename.concat work (Printf.sprintf "%s-%d-%d" a.workload a.seed (Unix.getpid ())) in
  mkdir_p dir;
  let code =
    Fun.protect
      ~finally:(fun () ->
        rm_rf dir;
        try Unix.rmdir work with Unix.Unix_error _ -> ())
      (fun () -> run a ~dir)
  in
  exit code

let () =
  try main () with
  | Failure m | Sys_error m ->
    prerr_endline ("loadgen: " ^ m);
    exit 2
