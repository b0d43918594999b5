(* A real `gql serve` process driven over its Unix socket through
   [Gql_server.Client]: spawn, readiness, closed-loop connections,
   counters, peak RSS, stop. *)

open Gql_server

let now = Unix.gettimeofday

type t = { pid : int; sock : string; mutable live : bool }

(* Every server this process started, so an early exit still stops them. *)
let spawned : t list ref = ref []

let stop s =
  if s.live then begin
    s.live <- false;
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ())
  end

let () = at_exit (fun () -> List.iter stop !spawned)

let exited s =
  match Unix.waitpid [ Unix.WNOHANG ] s.pid with
  | 0, _ -> false
  | _ ->
    s.live <- false;
    true

(** Start [gql serve --socket] on [files] and wait until every preload is
    done and a PING is answered.  Returns the server, an open client and
    the seconds from spawn to ready. *)
let spawn ~gql ~dir (files : string list) : t * Client.t * float =
  (* a socket per server: two can be up at once *)
  let sock = Filename.concat dir (Printf.sprintf "gql-%d.sock" (List.length !spawned)) in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let log =
    Unix.openfile (Filename.concat dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let args = [ gql; "serve"; "--socket"; sock ] @ List.concat_map (fun f -> [ "-d"; f ]) files in
  let t0 = now () in
  let pid = Unix.create_process gql (Array.of_list args) Unix.stdin log log in
  Unix.close log;
  let s = { pid; sock; live = true } in
  spawned := s :: !spawned;
  let rec connect () =
    match Client.connect_unix sock with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      if exited s then failwith "gql serve exited before it was ready (see serve.log)";
      if now () -. t0 > 120.0 then failwith "gql serve not ready after 120 s";
      Unix.sleepf 0.0005;
      connect ()
  in
  let c = connect () in
  (match Client.ping c with
  | Ok _ -> ()
  | Error m -> failwith ("PING: " ^ m));
  (s, c, now () -. t0)

(** Peak resident set (VmHWM) of the server, in MB. *)
let peak_rss_mb s =
  let ic = open_in (Printf.sprintf "/proc/%d/status" s.pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> failwith "no VmHWM in /proc status"
      in
      go ())

(** The server's METRICS counters as integers (non-integer values such
    as [uptime_s] are dropped). *)
let counters c =
  match Client.metrics c with
  | Error m -> failwith ("METRICS: " ^ m)
  | Ok (_, body) ->
    List.filter_map
      (fun (k, v) -> Option.map (fun n -> (k, n)) (int_of_string_opt v))
      (Metrics.parse_body body)

(** [counters] over a connection of its own, closed again. *)
let counters_once s =
  let c = Client.connect_unix s.sock in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> counters c)

let counter cs k = try List.assoc k cs with Not_found -> failwith ("no METRICS key " ^ k)
let delta ~before ~after k = counter after k - counter before k

(* ------------------------------------------------------------------ *)
(* Requests and their outcomes                                         *)
(* ------------------------------------------------------------------ *)

type sample = {
  rid : int;  (** position in the run's request log *)
  req : Workload.request;
  payload : string;
  sent : float;
  lat : float;  (** seconds, send to full response received *)
  head : string;  (** the response's head line *)
  body : string;
}

(* The run's request log: every request sent to any server of the run,
   for the correctness check and the replay.  [spawn_no] tells which
   server answered it. *)
type log_entry = { sample : sample; spawn_no : int }

(* [a.[off..]] = [b], compared a word at a time. *)
let same_tail a off b =
  let n = String.length b in
  String.length a - off = n
  &&
  let rec words i = i + 8 > n || (String.get_int64_ne a (off + i) = String.get_int64_ne b i && words (i + 8)) in
  let rec bytes i = i >= n || (a.[off + i] = b.[i] && bytes (i + 1)) in
  words 0 && bytes (n - (n mod 8))

(* One round trip.  A body equal to the one kept for the same payload in
   [seen] is not kept twice: at thousands of requests a second, the
   answers of a timed window would not fit in memory otherwise. *)
let one ?seen c ~rid ((req, payload) : Workload.request * string) =
  let t = now () in
  let response = Client.roundtrip c payload in
  let lat = now () -. t in
  let cut = Option.value ~default:(String.length response) (String.index_opt response '\n') in
  let head = String.sub response 0 cut in
  let off = min (String.length response) (cut + 1) in
  let body =
    match Option.bind seen (fun tbl -> Hashtbl.find_opt tbl payload) with
    | Some b when same_tail response off b -> b
    | _ ->
      let b = String.sub response off (String.length response - off) in
      Option.iter (fun tbl -> Hashtbl.replace tbl payload b) seen;
      b
  in
  { rid; req; payload; sent = t; lat; head; body }

(** Closed loop: each of the [streams] gets its own connection (one
    thread each) and sends its next request only when the previous
    answer is in, until [until].  Returns each connection's samples in
    send order. *)
let closed_loop ~sock ~until ~dedup (streams : Workload.stream array) ~next_rid : sample list array =
  let results = Array.make (Array.length streams) [] in
  let rid_lock = Mutex.create () in
  let take_rid () =
    Mutex.lock rid_lock;
    let r = !next_rid in
    incr next_rid;
    Mutex.unlock rid_lock;
    r
  in
  let conn k () =
    let c = Client.connect_unix sock in
    let seen = if dedup then Some (Hashtbl.create 64) else None in
    let acc = ref [] in
    while now () < until do
      acc := one ?seen c ~rid:(take_rid ()) (streams.(k) ()) :: !acc
    done;
    Client.close c;
    results.(k) <- List.rev !acc
  in
  let threads = Array.mapi (fun k _ -> Thread.create (conn k) ()) streams in
  Array.iter Thread.join threads;
  results
