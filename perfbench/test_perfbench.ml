(* Tests of the benchmark's own machinery: percentile selection, open-loop
   accounting, calm sub-phase selection, span self time, follower-lag
   matching and the update-script generator. *)

open Perfbench_lib

let feq = Alcotest.float 1e-9

(* The two ways reports pick a percentile: [supported] + [nearest] for the
   fixed p50/p90/p95/p99 of a latency (Drive.record_percentiles), and
   [at_most] for "p99, or the highest supported below it". *)
let test_percentile_rule () =
  let a n = Array.init n (fun i -> float_of_int (i + 1)) in
  let check name n p expect =
    Alcotest.(check bool) name expect (Pstats.supported n p)
  in
  check "1000 samples support p99" 1000 0.99 true;
  check "999 samples leave 9 beyond p99" 999 0.99 false;
  check "999 samples support p98" 999 0.98 true;
  check "20 samples support the median" 20 0.5 true;
  check "20 samples do not support p90" 20 0.9 false;
  check "19 samples support nothing" 19 0.5 false;
  check "no samples support nothing" 0 0.5 false;
  Alcotest.(check int) "10 beyond p99 of 1000" 10 (Pstats.beyond 1000 0.99);
  let s = Pstats.sorted_copy (Array.init 1000 (fun i -> float_of_int (1000 - i))) in
  Alcotest.check feq "nearest-rank p99" 990. (Pstats.nearest s 0.99);
  Alcotest.check feq "nearest-rank p50" 500. (Pstats.nearest s 0.5);
  Alcotest.check feq "median of an unsorted array" 500. (Pstats.median (a 1000));
  (match Pstats.at_most (a 1000) 0.99 with
  | Some (p, v) ->
    Alcotest.check feq "p99 itself when supported" 0.99 p;
    Alcotest.check feq "p99 of 1000" 990. v
  | None -> Alcotest.fail "1000 samples support p99");
  (match Pstats.at_most (a 500) 0.99 with
  | Some (p, v) ->
    Alcotest.check feq "falls back to p98" 0.98 p;
    Alcotest.check feq "p98 of 500" 490. v
  | None -> Alcotest.fail "500 samples support a tail percentile");
  (match Pstats.at_most (a 30) 0.99 with
  | Some (p, v) ->
    Alcotest.check feq "30 samples fall back to the median" 0.5 p;
    Alcotest.check feq "median of 30" 15. v
  | None -> Alcotest.fail "30 samples support the median");
  Alcotest.(check bool) "no median of 5" true (Pstats.at_most (a 5) 0.99 = None)

(* Rate 100/s: due every 10 ms.  Request 1 stalls 45 ms; requests 2 and 3
   go out the moment its reply lands, and the generator itself sends
   request 4 2 ms after it could have. *)
let test_stall_accounting () =
  let due i = Openloop.due ~t0:0. ~rate:100. ~phase:0. i in
  let mk i sent replied = { Openloop.due = due i; sent; replied; ok = true } in
  let samples =
    [ mk 0 0.000 0.001;
      mk 1 0.010 0.055;
      mk 2 0.055 0.056;
      mk 3 0.056 0.057;
      mk 4 0.059 0.060 (* due at 40 ms, connection free at 57 ms *) ]
  in
  let lat = List.map Openloop.latency samples in
  List.iter2
    (fun name (want, got) -> Alcotest.check (Alcotest.float 1e-9) name want got)
    [ "on time"; "stalled"; "queued behind the stall"; "queued too"; "late" ]
    (List.combine [ 0.001; 0.045; 0.036; 0.027; 0.020 ] lat);
  let late = Openloop.lateness samples in
  List.iter2
    (fun name (want, got) -> Alcotest.check (Alcotest.float 1e-9) name want got)
    [ "l0"; "l1"; "a stall is not generator lateness"; "l3";
      "generator late by 2 ms" ]
    (List.combine [ 0.; 0.; 0.; 0.; 0.002 ] late)

(* Rate 100/s.  A stalled system delays the requests queued behind it,
   which is latency, not lateness: the schedule holds.  A generator that
   sends every request 12 ms after it could have has not kept a 10 ms
   schedule, nor has one 20 ms late for the last 12 of 40 (40 samples
   support the p75, which is already late).  Over 200 requests, a host
   that preempts the generator for 30 ms five times leaves the p90 on
   time; thirty such delays do not. *)
let test_kept_schedule () =
  let due i = Openloop.due ~t0:0. ~rate:100. ~phase:0. i in
  let stream ?(n = 40) ~late ~service () =
    let prev = ref neg_infinity in
    List.init n (fun i ->
        let sent = Float.max (due i) !prev +. late i in
        let replied = sent +. service i in
        prev := replied;
        { Openloop.due = due i; sent; replied; ok = true })
  in
  let kept samples =
    Openloop.kept_schedule ~limit:1.0 ~interval:0.01 samples = Ok ()
  in
  let fast _ = 0.001 in
  Alcotest.(check bool) "on time" true
    (kept (stream ~late:(fun _ -> 0.) ~service:fast ()));
  Alcotest.(check bool) "system stall of 95 ms is not the generator's" true
    (kept
       (stream ~late:(fun _ -> 0.)
          ~service:(fun i -> if i = 5 then 0.095 else 0.001) ()));
  Alcotest.(check bool) "every request 12 ms late" false
    (kept (stream ~late:(fun _ -> 0.012) ~service:fast ()));
  Alcotest.(check bool) "9 ms late stays within one interval" true
    (kept (stream ~late:(fun _ -> 0.009) ~service:fast ()));
  (match
     Openloop.kept_schedule ~limit:1.0 ~interval:0.01
       (stream ~late:(fun i -> if i >= 28 then 0.02 else 0.) ~service:fast ())
   with
  | Error (p, v) ->
    Alcotest.check feq "judged at the p75 40 samples support" 0.75 p;
    Alcotest.check (Alcotest.float 1e-9) "its lateness" 0.02 v
  | Ok () -> Alcotest.fail "12 of 40 requests 20 ms late kept the schedule");
  let preempted k =
    stream ~n:200 ~late:(fun i -> if i mod 40 < k then 0.03 else 0.) ~service:fast ()
  in
  Alcotest.(check bool) "five preemptions in 200 keep the p90" true
    (kept (preempted 1));
  Alcotest.(check bool) "thirty in 200 do not" false (kept (preempted 6));
  Alcotest.(check bool) "too few samples to judge" true
    (kept
       (List.filteri (fun i _ -> i < 15)
          (stream ~late:(fun _ -> 0.05) ~service:fast ())))

(* Calm sub-phases: every one the host stole at most 3% from, else the
   three it stole least from, always in run order. *)
let test_calm_selection () =
  let pick = Pstats.calm_indices ~quiet:0.03 ~min_n:3 in
  let check name want steals = Alcotest.(check (list int)) name want (pick steals) in
  check "every quiet sub-phase" [ 0; 1; 3; 4 ] [ 0.; 0.01; 0.2; 0.03; 0.02 ];
  check "too few quiet: the three calmest" [ 1; 3; 4 ] [ 0.2; 0.05; 0.3; 0.04; 0.1 ];
  check "ties in run order" [ 0; 1; 2 ] [ 0.1; 0.1; 0.1; 0.1 ];
  check "fewer sub-phases than three" [ 0 ] [ 0.5 ]

let span id parent t0 t1 =
  { Trace.id; parent; name = "f"; layer = "l"; kind = "k"; req = 1; t0; t1 }

let test_self_time () =
  let spans =
    [ span 1 0 0. 10.;
      span 2 1 1. 4.;
      span 3 1 3. 6. (* overlaps span 2: [1,6] covered once *);
      span 4 2 2. 3. (* nested under span 2 *);
      span 5 1 8. 12. (* outlives its parent: only [8,10] counts *) ]
  in
  let self = Trace.self_times spans in
  let of_id id = snd (List.find (fun (s, _) -> s.Trace.id = id) self) in
  Alcotest.check feq "parent minus union of children" 3. (of_id 1);
  Alcotest.check feq "child minus its own child" 2. (of_id 2);
  Alcotest.check feq "overlapping sibling keeps its full self" 3. (of_id 3);
  Alcotest.check feq "leaf" 1. (of_id 4);
  Alcotest.check feq "late child" 4. (of_id 5);
  let t = Trace.create () in
  let v =
    Trace.with_span t ~name:"outer" ~layer:"a" ~kind:"k" ~req:7 (fun id ->
        Trace.with_span t ~parent:id ~name:"inner" ~layer:"b" ~kind:"k"
          ~req:7 (fun _ -> 42))
  in
  Alcotest.(check int) "value passes through" 42 v;
  match Trace.spans t with
  | [ inner; outer ] ->
    Alcotest.(check int) "inner's parent" outer.Trace.id inner.Trace.parent;
    Alcotest.(check bool) "nested in time" true
      (outer.Trace.t0 <= inner.Trace.t0 && inner.Trace.t1 <= outer.Trace.t1)
  | _ -> Alcotest.fail "two spans expected"

let test_lag_matching () =
  let acks = [ (2, 1.0); (3, 1.5); (4, 2.0); (9, 3.0) ] in
  let replies = [ (1.7, 4); (0.9, 2); (1.6, 2); (2.5, 3) (* late, lower *) ] in
  let lags, missing = Lag.lags ~acks ~replies in
  Alcotest.(check int) "v=9 never reached" 1 missing;
  Alcotest.(check (list (float 1e-9)))
    "shown before its ack; next reply reaching it; same reply"
    [ 0.; 0.2; 0. ] lags

let xmark_doc seed =
  Rworkload.Xmark.generate ~seed ~scale:0.5
  |> Rxml.Serializer.to_string
  |> Rxml.Parser.parse_string

let count_tag tag root =
  Rxml.Dom.fold_preorder
    (fun acc n -> if Rxml.Dom.is_element n && Rxml.Dom.tag n = tag then acc + 1 else acc)
    0 root

let test_update_script () =
  List.iter
    (fun seed ->
      let window = 24 and n = 300 in
      let script = Upscript.generate ~seed ~window ~n (xmark_doc seed) in
      let doc = xmark_doc seed in
      let r2 = Ruid.Ruid2.number ~max_area_size:64 doc in
      Array.iteri
        (fun i op ->
          (match Rstorage.Wal.apply r2 op with
          | _ -> ()
          | exception Rstorage.Wal.Replay_error msg ->
            Alcotest.failf "seed %d op %d invalid on the mirror: %s" seed i msg);
          let nodes = script.Upscript.nodes.(i) in
          if nodes < script.Upscript.base_nodes
             || nodes > script.Upscript.base_nodes + window
          then Alcotest.failf "seed %d op %d: size %d outside window" seed i nodes;
          Alcotest.(check int) "mirror size" nodes (Rxml.Dom.size doc))
        script.Upscript.ops;
      Ruid.Ruid2.check r2;
      Alcotest.(check int) "live leaves on the numbered copy"
        (Upscript.live_after script n) (count_tag Upscript.leaf_tag doc);
      Alcotest.(check int) "stationary at the window" window
        (Upscript.live_after script n))
    [ 1; 2; 3 ]

let () =
  Alcotest.run "perfbench"
    [
      ( "machinery",
        [
          Alcotest.test_case "percentile selection, >=10 beyond" `Quick
            test_percentile_rule;
          Alcotest.test_case "due-time latency and lateness under a stall"
            `Quick test_stall_accounting;
          Alcotest.test_case "late generator breaks its schedule" `Quick
            test_kept_schedule;
          Alcotest.test_case "calm sub-phases by stolen time" `Quick
            test_calm_selection;
          Alcotest.test_case "self time, nested and overlapping children"
            `Quick test_self_time;
          Alcotest.test_case "follower-lag matching" `Quick test_lag_matching;
          Alcotest.test_case "update script valid and stationary" `Quick
            test_update_script;
        ] );
    ]
