(* E20 — Streaming ingest vs DOM ingest: throughput and peak memory.

   The DOM path is what ingest did before the streaming builder existed:
   read the whole file into a string, [Parser.parse_string], then
   [Ruid2.number] — the source text, the tree and the numbering are all
   live at once, and the text was parsed twice when the client prechecked
   well-formedness.  The streaming path is [Stream_build.of_file]: one SAX
   pass over a chunked feed assembling the tree and the numbering directly,
   with the source never materialized.

   Both paths necessarily keep the finished tree (the paper's numbering
   needs global structure — fan-out and the greedy cut — before any
   identifier is final), so peak RSS grows with document size on both.
   What streaming buys is the constant: the full source string and the
   second parse disappear, so the extra footprint per ingested byte drops
   and the gap widens linearly with document size.  Client-side the bound
   is stronger still — [Client.add_doc_file] holds one protocol frame
   regardless of file size — but that is exercised by the server tests;
   this experiment isolates the build itself.

   Method: every measurement runs in a forked child so the high-water
   mark (VmHWM, see [Rserver.Metrics.vm_hwm_kb]) belongs to that one
   build; the child samples the mark before and after the work and
   reports the difference, cancelling whatever footprint it inherited
   from the harness (not the collector's state it inherits with it:
   EXPERIMENTS, "E20 in a clean process").  Documents are generated
   deterministically at several sizes; each child repeats the build
   enough times to get a stable docs/s figure, and RSS is taken from the
   same run, so a later build's peak also holds what the collector has
   not yet freed of the one before.  DOM and stream children run in
   [rounds] rounds per size, alternating which goes first, and the
   throughput ratio is the median of the per-round ratios: a burst of
   machine noise then costs one round, not the figure.

   A third path, hosted, is what a shard keeps resident for an ingested
   document: the streaming build plus the shard's publication call,
   [Snapshot.host] with a query planner — the snapshot takes the numbering
   as built, so the only growth over the build is the planner's indexes.
   A publication that copied the numbering would show here as a second
   tree.

   Raw rows and the headline ratios go to BENCH_ingest.json; the CI ingest
   job gates on streaming throughput >= 0.95x DOM, on the streaming
   footprint staying below the DOM path's at the largest size, and on the
   hosted footprint staying below 1.6x the streaming build's. *)

module Parser = Rxml.Parser
module Dom = Rxml.Dom
module Stream_build = Ruid.Stream_build
module Ruid2 = Ruid.Ruid2
module Snapshot = Rserver.Snapshot

let workdir () = Report.workdir "e20"

let max_area_size = 64

(* Deterministic catalog-shaped document of at least [target] bytes:
   moderate fan-out at the top, small rigid records below — the shape real
   corpora (DBLP, XMark items) ingest as.  E22 numbers it too. *)
let catalog ~target =
  let buf = Buffer.create 65_536 in
  Buffer.add_string buf "<catalog>\n";
  let i = ref 0 in
  while Buffer.length buf < target do
    Buffer.add_string buf
      (Printf.sprintf
         "<item id=\"%d\"><name>item-%d</name><price>%d</price><desc>A \
          sturdy example artifact, batch %d, for the ingest \
          benchmark.</desc></item>\n"
         !i !i ((!i * 37) mod 997) (!i / 64));
    incr i
  done;
  Buffer.add_string buf "</catalog>\n";
  Buffer.contents buf

let gen_file path ~target =
  let oc = open_out_bin path in
  output_string oc (catalog ~target);
  close_out oc;
  (Unix.stat path).Unix.st_size

type sample = {
  secs : float;
  reps : int;
  nodes : int;
  extra_kb : int;  (* VmHWM growth across the builds, KiB *)
}

let build_once mode path =
  match mode with
  | `Stream -> (Stream_build.of_file ~max_area_size path).Stream_build.stats.Stream_build.nodes
  | `Hosted ->
    let b = Stream_build.of_file ~max_area_size path in
    let hosted =
      Snapshot.host (Snapshot.capture ~version:1 [])
        ~planner:(Rxpath.Planner.make_shared ()) ~version:2
        [ ("doc", b.Stream_build.r2) ]
    in
    ignore (Sys.opaque_identity hosted);
    b.Stream_build.stats.Stream_build.nodes
  | `Dom ->
    let ic = open_in_bin path in
    let xml =
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      really_input_string ic (in_channel_length ic)
    in
    let doc = Parser.parse_string xml in
    let r2 = Ruid2.number ~max_area_size doc in
    ignore (Sys.opaque_identity r2);
    Dom.size doc

(* Run [reps] builds in a forked child; the pipe carries the sample back.
   The child bypasses at_exit so the parent's buffered stdout is not
   flushed twice. *)
let measure mode path ~reps =
  flush stdout;
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let base_kb = Rserver.Metrics.vm_hwm_kb () in
    let t0 = Unix.gettimeofday () in
    let nodes = ref 0 in
    for _ = 1 to reps do
      nodes := build_once mode path
    done;
    let secs = Unix.gettimeofday () -. t0 in
    let peak_kb = Rserver.Metrics.vm_hwm_kb () in
    let oc = Unix.out_channel_of_descr w in
    Printf.fprintf oc "%f %d %d\n" secs !nodes (max 0 (peak_kb - base_kb));
    flush oc;
    Unix._exit 0
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let line = input_line ic in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    Scanf.sscanf line "%f %d %d" (fun secs nodes extra_kb ->
        { secs; reps; nodes; extra_kb })

let docs_per_s s = float_of_int s.reps /. s.secs

let rounds = 5

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The round whose docs/s sits at the median: its sample stands for the
   path in the table and the RSS ratios. *)
let median_sample samples =
  let by = List.sort (fun a b -> compare (docs_per_s a) (docs_per_s b)) samples in
  List.nth by ((List.length by - 1) / 2)

let json_rows : string list ref = ref []

let write_json path ~ratio_tp ~ratio_rss ~ratio_hosted =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"E20\",\n\
     %s,\n\
    \  \"headline\": {\"stream_over_dom_throughput\": %.3f, \
     \"stream_over_dom_peak_rss\": %.3f, \
     \"hosted_over_stream_peak_rss\": %.3f},\n\
    \  \"sizes\": [\n%s\n  ]\n}\n"
    (Report.meta_json ~knobs:[ ("max_area_size", max_area_size) ] ())
    ratio_tp ratio_rss ratio_hosted
    (String.concat ",\n" (List.rev !json_rows));
  close_out oc;
  Report.note "wrote %s" path

let run () =
  Report.section "E20  Streaming ingest vs DOM ingest: docs/s and peak RSS";
  let sizes = [ ("128K", 128 * 1024); ("1M", 1 lsl 20); ("8M", 8 lsl 20) ] in
  let last_tp = ref 1.0 and last_rss = ref 1.0 and last_hosted = ref 1.0 in
  let rows =
    List.map
      (fun (label, target) ->
        let path = Filename.concat (workdir ()) ("doc-" ^ label ^ ".xml") in
        let bytes = gen_file path ~target in
        (* Enough repetitions per child for a stable clock on small files,
           two on the big ones where a single build takes seconds (the
           second build's garbage is part of the footprint the RSS gates
           have always read); with the rounds, each path builds a 128K,
           1M and 8M document 40, 15 and 10 times. *)
        let reps = max 2 (min 8 (3_200_000 / bytes)) in
        let pairs =
          List.init rounds (fun i ->
              if i mod 2 = 0 then
                let dom = measure `Dom path ~reps in
                (dom, measure `Stream path ~reps)
              else
                let st = measure `Stream path ~reps in
                (measure `Dom path ~reps, st))
        in
        let ratios =
          List.map (fun (d, s) -> docs_per_s s /. docs_per_s d) pairs
        in
        let dom = median_sample (List.map fst pairs) in
        let st = median_sample (List.map snd pairs) in
        let ho = measure `Hosted path ~reps in
        if
          List.exists (fun (d, s) -> d.nodes <> s.nodes || s.nodes <> ho.nodes)
            pairs
        then
          failwith
            (Printf.sprintf
               "E20: node count mismatch (dom %d, stream %d, hosted %d)"
               dom.nodes st.nodes ho.nodes);
        let tp = median ratios in
        let ratio a b =
          if b.extra_kb = 0 then 1.0
          else float_of_int a.extra_kb /. float_of_int b.extra_kb
        in
        let rss = ratio st dom and hosted = ratio ho st in
        last_tp := tp;
        last_rss := rss;
        last_hosted := hosted;
        json_rows :=
          Printf.sprintf
            "    {\"size\": %S, \"bytes\": %d, \"nodes\": %d, \"reps\": %d,\n\
            \     \"round_ratios\": [%s],\n\
            \     \"dom\": {\"secs\": %.4f, \"docs_per_s\": %.2f, \
             \"peak_extra_kb\": %d},\n\
            \     \"stream\": {\"secs\": %.4f, \"docs_per_s\": %.2f, \
             \"peak_extra_kb\": %d},\n\
            \     \"hosted\": {\"secs\": %.4f, \"docs_per_s\": %.2f, \
             \"peak_extra_kb\": %d}}"
            label bytes st.nodes reps
            (String.concat ", " (List.map (Printf.sprintf "%.3f") ratios))
            dom.secs (docs_per_s dom) dom.extra_kb
            st.secs (docs_per_s st) st.extra_kb ho.secs (docs_per_s ho)
            ho.extra_kb
          :: !json_rows;
        [
          label;
          Report.fint bytes;
          Report.fint st.nodes;
          Printf.sprintf "%.1f" (docs_per_s dom);
          Printf.sprintf "%.1f" (docs_per_s st);
          Printf.sprintf "%.2fx" tp;
          Report.fint dom.extra_kb;
          Report.fint st.extra_kb;
          Printf.sprintf "%.2fx" rss;
          Report.fint ho.extra_kb;
          Printf.sprintf "%.2fx" hosted;
        ])
      sizes
  in
  Report.table
    [
      "doc"; "bytes"; "nodes"; "dom docs/s"; "stream docs/s"; "speedup";
      "dom kb"; "stream kb"; "rss ratio"; "hosted kb"; "hosted/stream";
    ]
    rows;
  Report.note "both paths keep the finished tree (numbering needs global";
  Report.note "structure), so RSS grows with the document on both; streaming";
  Report.note "drops the source copy and the second parse, so its footprint";
  Report.note "per byte stays below the DOM path's and the gap widens with";
  Report.note "size.  Hosting adds only the planner's indexes: the snapshot";
  Report.note "takes the numbering as built.  speedup is the median of %d" rounds;
  Report.note "alternating DOM/stream rounds; the CI ingest job gates on the";
  Report.note "headline ratios.";
  write_json "BENCH_ingest.json" ~ratio_tp:!last_tp ~ratio_rss:!last_rss
    ~ratio_hosted:!last_hosted
