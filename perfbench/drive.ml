(* Phases: open loop at a fixed rate, and closed loop for capacity.

   A phase runs one stream per connection, each on its own thread (the
   main thread drives the first), so the load generator never has more
   than two threads or two requests in flight.  [exec i] performs the
   stream's [i]-th request, checks its answer, and returns the time the
   reply arrived and whether it counts as a success. *)

open Perfbench_lib

type exec = int -> float * bool

(* A stream of prepared requests, consumed in order across the
   sub-phases of a run. *)
type cursor = { exec : exec; max_n : int; mutable next : int }

let cursor ~max_n exec = { exec; max_n; next = 0 }

(* A stream sends every request due before [until], however late: after
   a stall the backlog goes out back to back, each request's latency still
   counted from its due time.  A reply that misses its deadline is a
   timeout, which fails; the run's watchdog bounds the rest. *)
type open_result = Openloop.sample list  (** send order *)

let open_stream ~t0 ~until ~rate ~phase c =
  let rec go k acc =
    if c.next >= c.max_n then List.rev acc
    else
      let due = Openloop.due ~t0 ~rate ~phase k in
      if due >= until then List.rev acc
      else begin
        let i = c.next in
        c.next <- i + 1;
        Openloop.wait_until due;
        let sent = Unix.gettimeofday () in
        let replied, ok = c.exec i in
        go (k + 1) ({ Openloop.due; sent; replied; ok } :: acc)
      end
  in
  go 0 []

type closed_result = { sent : int; succeeded : int; elapsed : float }

let closed_stream ~until c =
  let t0 = Unix.gettimeofday () in
  let n = ref 0 and good = ref 0 and last = ref t0 in
  while c.next < c.max_n && Unix.gettimeofday () < until do
    let i = c.next in
    c.next <- i + 1;
    let replied, ok = c.exec i in
    incr n;
    if ok then incr good;
    last := replied
  done;
  { sent = !n; succeeded = !good; elapsed = !last -. t0 }

let merge_open : open_result list -> open_result = List.concat

(* A workload's figures come from [cycles] sub-phases of each kind, which
   [query] and [ingest] alternate so both kinds sample the whole run: the
   machine's speed drifts over seconds, and a figure taken from one
   contiguous block would inherit whatever the machine did during it.
   [update] reads its capacity last, once the follower has caught up. *)
let cycles = 10

(* A sub-phase's result and the share of the machine's CPU time that the
   host of this virtual machine stole while it ran. *)
type 'a sub = { result : 'a; steal : float }

let sub f =
  let s0, t0 = Proc.cpu_ticks () in
  let result = f () in
  let s1, t1 = Proc.cpu_ticks () in
  { result;
    steal = (if t1 > t0 then float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0.) }

(* A sub-phase in which the host stole CPU time measures the host as much
   as the program, so a run's figures pool its calm sub-phases: those in
   which the host stole at most 3% of the machine's CPU time, or the three
   in which it stole the least when fewer were that calm
   ({!Pstats.calm_indices}).  A calm run keeps all of them. *)
let calm (subs : 'a sub list) =
  let keep = Pstats.calm_indices ~quiet:0.03 ~min_n:3 (List.map (fun s -> s.steal) subs) in
  List.filteri (fun i _ -> List.mem i keep) subs

(* Every sub-phase's figure and stolen share, for the result file. *)
let record_subphases report name (subs : float sub list) =
  Report.info report (name ^ "_per_subphase")
    (Report.Arr (List.map (fun s -> Report.Num s.result) subs));
  Report.info report (name ^ "_steal_per_subphase")
    (Report.Arr (List.map (fun s -> Report.Num s.steal) subs))

(* Run [a] on this thread and [b] on a second one; exceptions from either
   side re-raise here once both are done. *)
let both a b =
  let rb = ref None in
  let th =
    Thread.create
      (fun () -> rb := Some (match b () with v -> Ok v | exception e -> Error e))
      ()
  in
  let ra = match a () with v -> Ok v | exception e -> Error e in
  Thread.join th;
  match ra, !rb with
  | Ok a, Some (Ok b) -> (a, b)
  | Error e, _ | _, Some (Error e) -> raise e
  | Ok _, None -> assert false

(* Start time shared by both streams of a phase: a little ahead, so
   neither starts behind. *)
let start_soon () = Unix.gettimeofday () +. 0.02

(* Latencies in ms; a failed request counts as infinitely slow, so it
   misses every latency limit. *)
let latencies_ms (o : open_result) =
  Array.of_list
    (List.map
       (fun s ->
         if s.Openloop.ok then Openloop.latency s *. 1e3 else infinity)
       o)

(* [prefix]_p50_ms, _p90_ms, _p95_ms and _p99_ms of latencies in ms, each
   only when the sample has at least ten values beyond it, and the sample
   count. *)
let record_percentiles report prefix lat_ms =
  let lat = Pstats.sorted_copy lat_ms in
  List.iter
    (fun (p, name) ->
      if Pstats.supported (Array.length lat) p then
        Report.metric report (Printf.sprintf "%s_%s_ms" prefix name) "ms"
          (Pstats.nearest lat p))
    [ (0.5, "p50"); (0.9, "p90"); (0.95, "p95"); (0.99, "p99") ];
  Report.info report (prefix ^ "_samples") (Report.Int (Array.length lat))

(* The open-loop figures of a pass, given one result per sub-phase (both
   connections merged).  [prefix]_p50_ms is the median of the {!calm}
   sub-phases' samples; the tail percentiles pool every sample of the run,
   since half of it has too few beyond its p99. *)
let record_latency report prefix (subs : open_result sub list) =
  let results l = merge_open (List.map (fun s -> s.result) l) in
  record_percentiles report prefix (latencies_ms (results subs));
  let calm_ms = latencies_ms (results (calm subs)) in
  if Pstats.supported (Array.length calm_ms) 0.5 then
    Report.metric report (prefix ^ "_p50_ms") "ms" (Pstats.median calm_ms);
  record_subphases report (prefix ^ "_p50_ms")
    (List.map (fun s -> { s with result = Pstats.median (latencies_ms s.result) }) subs)

(* Successful completions per second of closed-loop streams that ran side
   by side, given one list of streams per sub-phase: completions over time
   across the {!calm} sub-phases. *)
let record_capacity report name (subs : closed_result list sub list) =
  let ok cs = float_of_int (List.fold_left (fun a c -> a + c.succeeded) 0 cs) in
  let elapsed cs = List.fold_left (fun a c -> Float.max a c.elapsed) 0. cs in
  let sum f l = List.fold_left (fun a s -> a +. f s.result) 0. l in
  let c = calm subs in
  Report.metric report name "req/s" (sum ok c /. Float.max (sum elapsed c) 1e-9);
  record_subphases report name
    (List.map (fun s -> { s with result = ok s.result /. Float.max (elapsed s.result) 1e-9 }) subs)

(* A generator that cannot hold its schedule invalidates the run rather
   than counting as a slow system: for each open-loop stream, given with
   its interval between requests on one connection, the p90 of its
   lateness must stay within [late_limit] of that interval
   ({!Openloop.kept_schedule}).  The metric loadgen.late_p99_ms pools
   every stream. *)
let late_limit = 1.0

let record_lateness report (streams : (open_result * float) list) =
  List.iter
    (fun (o, interval) ->
      let kept = Openloop.kept_schedule ~limit:late_limit ~interval o in
      Report.outcome report ~ok:(kept = Ok ())
        (lazy
          (match kept with
          | Error (p, v) ->
            Printf.sprintf
              "load generator late: p%g of its lateness is %.2f ms, over %g \
               of the %.1f ms request interval; the run is invalid"
              (p *. 100.) (v *. 1e3) late_limit (interval *. 1e3)
          | Ok () -> "")))
    streams;
  let late =
    Array.concat
      (List.map
         (fun (o, _) ->
           Array.of_list (List.map (fun l -> l *. 1e3) (Openloop.lateness o)))
         streams)
  in
  match Pstats.at_most late 0.99 with
  | Some (_, v) -> Report.metric report "loadgen.late_p99_ms" "ms" v
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

let setup_deadline = 90.

(* One request on a fresh connection, for readiness probes and final
   checks; [None] when nothing answers. *)
let once ?(timeout_ms = 5_000) socket request =
  match Rserver.Client.connect socket with
  | exception Unix.Unix_error _ -> None
  | c ->
    Fun.protect ~finally:(fun () -> Rserver.Client.close c) @@ fun () ->
    match Rserver.Client.request_timeout c ~timeout_ms request with
    | r -> Some r
    | exception (Rserver.Client.Timeout | End_of_file | Sys_error _
                | Unix.Unix_error _ | Rserver.Protocol.Protocol_error _) ->
      None

let once_ok ?timeout_ms socket request =
  match once ?timeout_ms socket request with
  | Some (Rserver.Protocol.Ok_ body) -> Some body
  | _ -> None

(* Poll [ready] until it holds; every process in [procs] must stay up. *)
let wait_ready ~procs ready =
  let deadline = Unix.gettimeofday () +. setup_deadline in
  let rec go () =
    if ready () then ()
    else
      match List.find_opt Proc.exited procs with
      | Some p ->
        raise (Conn.Deployment_dead (p.Proc.name ^ " exited during set-up"))
      | None ->
        if Unix.gettimeofday () > deadline then
          raise (Conn.Deployment_dead "set-up did not complete");
        Unix.sleepf 0.002;
        go ()
  in
  go ()

(* Launch a deployment [n] times, timing each from launch to readiness;
   every launch but the last is torn down again.  Returns the set-up
   times and the live deployment. *)
let setups ~n ~launch ~procs ~ready ~teardown =
  let rec go k acc =
    let t0 = Unix.gettimeofday () in
    let d = launch () in
    wait_ready ~procs:(procs d) (fun () -> ready d);
    let acc = (Unix.gettimeofday () -. t0) :: acc in
    if k < n then begin
      teardown d;
      go (k + 1) acc
    end
    else (List.rev acc, d)
  in
  go 1 []

(* ------------------------------------------------------------------ *)
(* STATS                                                               *)
(* ------------------------------------------------------------------ *)

let stats socket =
  match once_ok socket Rserver.Protocol.Stats with
  | Some body -> Conn.stats_tokens body
  | None -> []

let stat_float toks key =
  match List.assoc_opt key toks with
  | Some v -> (try float_of_string v with Failure _ -> 0.)
  | None -> 0.

(* Sum of a key over every line that carries it (per-group counters). *)
let stat_all toks key =
  List.filter_map
    (fun (k, v) -> if k = key then float_of_string_opt v else None)
    toks

let stat_delta ~before ~after key = stat_float after key -. stat_float before key
