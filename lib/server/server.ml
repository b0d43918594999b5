(** The query service: frozen snapshots behind a socket.

    One [t] owns the four shared structures — document {!Registry},
    prepared-{!Qcache}, result-{!Rcache} and {!Metrics} — plus a
    {!Pool} of worker domains.  Listeners (TCP and/or Unix-domain)
    accept in a lightweight thread and hand each connection to the
    pool, so up to [workers] connections evaluate in parallel over the
    same immutable snapshots.

    Request handling is a pure [payload -> payload] function
    ({!handle_payload}), which is also the in-process entry point the
    tests and benchmarks drive without sockets.

    Deadlines: a [RUN] may carry [deadline=MS] (or inherit the server
    default).  The engines are not preemptible, so the deadline is
    enforced at the evaluation boundaries — a request that has already
    overstayed when it reaches the evaluator, or that finishes past its
    deadline, answers [TIMEOUT] instead of the result.  A completed
    result is still cached, so a retry of a timed-out query usually
    hits. *)

type config = {
  workers : int option;  (** worker domains; default {!Pool.default_size} *)
  result_cache : int;  (** LRU capacity; [0] disables result caching *)
  query_cache : int;  (** prepared-query capacity *)
  default_deadline_ms : float option;
  run_domains : int option;
      (** domains per [RUN] evaluation; [None] (the default) sizes each
          RUN by {!Gql_graph.Par.auto_domains} — a lone request borrows
          the capacity idle pool workers leave unused, while concurrent
          busy workers each hold a budget unit so a client burst
          degrades to one domain per request instead of oversubscribing
          the machine *)
}

let default_config =
  { workers = None; result_cache = 256; query_cache = 1024;
    default_deadline_ms = None; run_domains = None }

type t = {
  config : config;
  registry : Registry.t;
  qcache : Qcache.t;
  rcache : Rcache.t option;
  pcache : Gql_match.Eval.prepared Pcache.t;
      (** planned MATCH queries, keyed (doc, snapshot version, query
          hash) — planning (estimate scans, join enumeration) runs once
          per snapshot even when the result cache misses or is off *)
  metrics : Metrics.t;
  pool : Pool.t;
  mutex : Mutex.t;  (** listener list *)
  mutable listeners : Unix.file_descr list;
}

let create ?(config = default_config) () =
  {
    config;
    registry = Registry.create ();
    qcache = Qcache.create ~capacity:config.query_cache ();
    rcache =
      (if config.result_cache > 0 then
         Some (Rcache.create ~capacity:config.result_cache ())
       else None);
    pcache = Pcache.create ~capacity:config.query_cache ();
    metrics = Metrics.create ();
    pool = Pool.create ?size:config.workers ();
    mutex = Mutex.create ();
    listeners = [];
  }

let registry t = t.registry
let metrics t = t.metrics
let workers t = Pool.size t.pool

(** The exact [RUN] body of a WG-Log fixpoint — kept in one place so the
    server, the CLI and the byte-identity tests cannot drift apart. *)
let wglog_stats_line (s : Gql_wglog.Eval.stats) =
  Printf.sprintf "fixpoint reached: %d rounds, %d embeddings, +%d nodes, +%d edges\n"
    s.Gql_wglog.Eval.rounds s.embeddings_found s.nodes_added s.edges_added

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let ok ?(info = "") body = Protocol.Ok_ { info; body }

let require_doc t doc k =
  match Registry.find t.registry doc with
  | Some snap -> k snap
  | None -> Protocol.Err (Printf.sprintf "no document %S (LOAD it first)" doc)

(** Resolve a [RUN]/[EXPLAIN] query reference through the prepared
    cache, counting hits/misses. *)
let resolve_query t ~schema query k =
  let r =
    match query with
    | `Named name -> Qcache.find_named t.qcache name
    | `Source src -> Qcache.intern t.qcache ~schema src
  in
  match r with
  | Error msg -> Protocol.Err msg
  | Ok (entry, hit) ->
    Metrics.incr
      (if hit then t.metrics.Metrics.prepared_hits
       else t.metrics.Metrics.prepared_misses);
    k entry

let cache_key (snap : Registry.snapshot) (entry : Qcache.entry) kind =
  {
    Rcache.doc = snap.Registry.name;
    version = snap.Registry.version;
    qhash = entry.Qcache.hash;
    kind;
  }

(** Look up / fill the result cache around an evaluation thunk. *)
let with_result_cache t snap entry kind (eval : unit -> string * string) :
    string * string =
  match t.rcache with
  | None ->
    Metrics.incr t.metrics.Metrics.result_misses;
    eval ()
  | Some rc -> (
    let key = cache_key snap entry kind in
    match Rcache.find rc key with
    | Some (info, body) ->
      Metrics.incr t.metrics.Metrics.result_hits;
      ((if info = "" then "cached" else info ^ " cached"), body)
    | None ->
      Metrics.incr t.metrics.Metrics.result_misses;
      let info, body = eval () in
      Rcache.add rc key ~info body;
      (info, body))

(** The plan-cache door for MATCH: return the prepared (compiled +
    planned) form for [entry] against [snap], planning at most once per
    (doc, version, hash), counting hits/misses. *)
let plan_match t (snap : Registry.snapshot) (entry : Qcache.entry)
    (q : Gql_match.Ast.query) : Gql_match.Eval.prepared =
  let key =
    {
      Pcache.doc = snap.Registry.name;
      version = snap.Registry.version;
      qhash = entry.Qcache.hash;
    }
  in
  match Pcache.find t.pcache key with
  | Some prepared ->
    Metrics.incr t.metrics.Metrics.plan_hits;
    prepared
  | None ->
    Metrics.incr t.metrics.Metrics.plan_misses;
    let prepared =
      Gql_match.Eval.prepare ~index:snap.Registry.index
        snap.Registry.db.Gql_core.Gql.graph q
    in
    Pcache.add t.pcache key prepared;
    prepared

let evaluate t (snap : Registry.snapshot) (entry : Qcache.entry) :
    string * string =
  let domains =
    match t.config.run_domains with
    | Some n -> max 1 n
    | None -> Gql_graph.Par.auto_domains ()
  in
  match entry.Qcache.prepared with
  | Qcache.Xmlgl p ->
    let result =
      Gql_xmlgl.Engine.run_program ~index:snap.Registry.index ~domains
        snap.Registry.db.Gql_core.Gql.graph p
    in
    let body = Gql_core.Gql.to_xml_string result in
    ( Printf.sprintf "lang=xmlgl hits=%d" (List.length result.Gql_xml.Tree.children),
      body )
  | Qcache.Wglog p ->
    (* deductive semantics mutate: run on a private fork, publish
       nothing.  The fork starts on the snapshot's own frozen index (no
       re-freeze until its first derived edge); the rebuilt index and
       the run's green-edge set stay private to this request. *)
    let g = Registry.fork snap in
    let stats = Gql_wglog.Eval.run ~domains g p in
    ( Printf.sprintf "lang=wglog derived_edges=%d" stats.Gql_wglog.Eval.edges_added,
      wglog_stats_line stats )
  | Qcache.Match q ->
    let prepared = plan_match t snap entry q in
    let body, rows =
      Gql_match.Eval.run_prepared ~domains
        snap.Registry.db.Gql_core.Gql.graph prepared
    in
    (Printf.sprintf "lang=match rows=%d" rows, body)

let explain t (snap : Registry.snapshot) (entry : Qcache.entry) :
    string * string =
  match entry.Qcache.prepared with
  | Qcache.Xmlgl p -> (
    match p.Gql_xmlgl.Ast.rules with
    | [] -> ("lang=xmlgl", "(no rules)\n")
    | r :: _ ->
      ( "lang=xmlgl",
        Gql_algebra.Exec.explain_xmlgl ~index:snap.Registry.index
          snap.Registry.db.Gql_core.Gql.graph r.Gql_xmlgl.Ast.query ))
  | Qcache.Wglog p -> (
    match p.Gql_wglog.Ast.rules with
    | [] -> ("lang=wglog", "(no rules)\n")
    | r :: _ ->
      ( "lang=wglog",
        Gql_algebra.Exec.explain_wglog ~index:snap.Registry.index
          snap.Registry.db.Gql_core.Gql.graph r ))
  | Qcache.Match q ->
    ( "lang=match",
      Gql_algebra.Plan.to_string
        (plan_match t snap entry q).Gql_match.Eval.pr_plan )

let handle_request t (req : Protocol.request) ~(started : float) :
    Protocol.response =
  match req with
  | Protocol.Ping -> ok ~info:"pong" ""
  | Protocol.Quit -> ok ~info:"bye" ""
  | Protocol.Metrics ->
    (* server counters plus the Par scheduler's slice: jobs, chunks,
       steals, sequential-fallback reasons, spawn failures *)
    ok
      (Metrics.render t.metrics
      ^ Gql_graph.Par.stats_lines ()
      ^ Gql_graph.Regpath.stats_lines ()
      ^ Gql_data.Store.stats_lines ())
  | Protocol.Load { doc; xml } -> (
    let prior = Registry.find t.registry doc in
    match Registry.load_xml t.registry ~name:doc xml with
    | Error msg -> Protocol.Err msg
    | Ok snap ->
      Metrics.incr t.metrics.Metrics.loads;
      (* Digest reuse: identical content re-installed the same snapshot
         (version unchanged) — its cached results are still valid, so
         keep them warm instead of purging. *)
      let reused =
        match prior with
        | Some p -> p.Registry.version = snap.Registry.version
        | None -> false
      in
      if not reused then begin
        Option.iter (fun rc -> Rcache.purge_doc rc doc) t.rcache;
        Pcache.purge_doc t.pcache doc
      end;
      ok
        ~info:
          (Printf.sprintf "doc=%s version=%d nodes=%d edges=%d" snap.Registry.name
             snap.Registry.version snap.Registry.nodes snap.Registry.edges)
        "")
  | Protocol.Prepare { name; schema; source } -> (
    match Qcache.prepare t.qcache ~name ~schema source with
    | Error msg -> Protocol.Err msg
    | Ok (entry, hit) ->
      Metrics.incr
        (if hit then t.metrics.Metrics.prepared_hits
         else t.metrics.Metrics.prepared_misses);
      ok
        ~info:
          (Printf.sprintf "name=%s lang=%s hash=%s" name
             (match entry.Qcache.lang with
             | `Xmlgl -> "xmlgl"
             | `Wglog -> "wglog"
             | `Match -> "match")
             entry.Qcache.hash)
        "")
  | Protocol.Stats { doc } ->
    require_doc t doc (fun snap ->
        ok
          (Printf.sprintf "name=%s\nversion=%d\nnodes=%d\nedges=%d\ndocument=%b\n"
             snap.Registry.name snap.Registry.version snap.Registry.nodes
             snap.Registry.edges
             (Option.is_some snap.Registry.db.Gql_core.Gql.document)))
  | Protocol.Explain { doc; query } ->
    require_doc t doc (fun snap ->
        resolve_query t ~schema:None query (fun entry ->
            let info, body =
              with_result_cache t snap entry "explain" (fun () ->
                  explain t snap entry)
            in
            ok ~info body))
  | Protocol.Run { doc; query; schema; deadline_ms } ->
    require_doc t doc (fun snap ->
        resolve_query t ~schema query (fun entry ->
            let deadline =
              match deadline_ms with
              | Some _ -> deadline_ms
              | None -> t.config.default_deadline_ms
            in
            let elapsed_ms () = (Unix.gettimeofday () -. started) *. 1000.0 in
            let overdue () =
              match deadline with Some d -> elapsed_ms () > d | None -> false
            in
            if overdue () then begin
              Metrics.incr t.metrics.Metrics.timeouts;
              Protocol.Timeout { elapsed_ms = elapsed_ms () }
            end
            else begin
              Metrics.incr t.metrics.Metrics.runs;
              let info, body =
                with_result_cache t snap entry "run" (fun () ->
                    evaluate t snap entry)
              in
              if overdue () then begin
                (* the work is done (and cached) but the client's budget
                   is blown: answer the truth *)
                Metrics.incr t.metrics.Metrics.timeouts;
                Protocol.Timeout { elapsed_ms = elapsed_ms () }
              end
              else
                ok ~info:(Printf.sprintf "%s ms=%.2f" info (elapsed_ms ())) body
            end))

(** The full service function: request payload in, response payload out.
    Everything — parse errors included — becomes a framed response;
    metrics are recorded here so in-process callers count too. *)
let handle_payload t (payload : string) : string =
  let started = Unix.gettimeofday () in
  Metrics.incr t.metrics.Metrics.requests;
  let response =
    match Protocol.parse_request payload with
    | req -> (
      (* Everything an evaluator can throw must become a framed ERR: an
         exception escaping here kills the worker domain serving the
         connection.  The typed errors keep their messages; anything
         unexpected is still fenced off by the final catch-all. *)
      try handle_request t req ~started with
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
  (match response with
  | Protocol.Err _ -> Metrics.incr t.metrics.Metrics.errors
  | Protocol.Timeout _ | Protocol.Ok_ _ -> ());
  Metrics.observe t.metrics.Metrics.latency
    ~us:(int_of_float ((Unix.gettimeofday () -. started) *. 1e6));
  Protocol.render_response response

(* ------------------------------------------------------------------ *)
(* Connections and listeners                                           *)
(* ------------------------------------------------------------------ *)

let is_quit payload =
  match Protocol.parse_request payload with
  | Protocol.Quit -> true
  | _ | (exception Protocol.Protocol_error _) -> false

let handle_connection t (fd : Unix.file_descr) : unit =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rec loop () =
    match Protocol.read_frame ic with
    | None -> ()
    | Some payload ->
      let response = handle_payload t payload in
      Protocol.write_frame oc response;
      if not (is_quit payload) then loop ()
  in
  (try loop () with
  | Protocol.Protocol_error msg ->
    (try Protocol.write_frame oc (Protocol.render_response (Protocol.Err msg))
     with Sys_error _ | Unix.Unix_error _ -> ())
  | End_of_file | Sys_error _ | Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

type listener = { fd : Unix.file_descr; thread : Thread.t }

(** Bind, listen and accept in a background thread; each connection is
    handled on a pool domain.  [ADDR_UNIX path] unlinks a stale socket
    file first. *)
let listen t (addr : Unix.sockaddr) : listener =
  let domain = Unix.domain_of_sockaddr addr in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match addr with
  | Unix.ADDR_UNIX path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
  Unix.bind fd addr;
  Unix.listen fd 64;
  let thread =
    Thread.create
      (fun () ->
        let rec accept_loop () =
          match Unix.accept fd with
          | conn, _ ->
            Pool.submit t.pool (fun () -> handle_connection t conn);
            accept_loop ()
          | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
            () (* listener shut down: stop *)
          | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _)
            ->
            accept_loop ()
        in
        accept_loop ())
      ()
  in
  Mutex.lock t.mutex;
  t.listeners <- fd :: t.listeners;
  Mutex.unlock t.mutex;
  { fd; thread }

let wait (l : listener) = Thread.join l.thread

(** Close every listener and join the worker domains (in-flight
    connections finish first). *)
let stop t =
  Mutex.lock t.mutex;
  let fds = t.listeners in
  t.listeners <- [];
  Mutex.unlock t.mutex;
  List.iter
    (fun fd ->
      (* shutdown wakes a blocked accept (EINVAL on Linux); close alone
         can leave the accept thread parked forever *)
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ())
    fds;
  Pool.shutdown t.pool
