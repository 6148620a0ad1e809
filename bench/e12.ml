(* E12 — Crash-safe journaling: what durability costs and what recovery
   costs.

   (a) Recovery wall clock as the journal grows: snapshot + N journaled
   operations, then a cold Wal.replay (with and without the deep invariant
   checker).  (b) The per-operation price of durability: applying an update
   in memory, journaling it through the WAL (append + fsync), and the naive
   alternative of rewriting the whole snapshot after every operation.
   (c) The sidecar format itself: v4 (the frame only: a few bytes per
   area) against v3 (every identifier and K, framed with per-section
   CRC-32s) and the seed's v2 (v3 unframed), encode/decode wall clock and
   size, on uniform documents of 500 and 5,000 nodes at area size 32 and
   on the golden XMark-33k document at area size 64.

   Raw numbers go to BENCH_recovery.json; the CI fault-injection job
   uploads that file as an artifact and fails when v4 takes more than
   1/8 of v3's bytes at 5,000 nodes (sizes are deterministic). *)

module Dom = Rxml.Dom
module R2 = Ruid.Ruid2
module Persist = Ruid.Persist
module Wal = Rstorage.Wal
module Crashsim = Rstorage.Crashsim
module Updates = Rworkload.Updates

let json_recovery : string list ref = ref []
let json_append : string list ref = ref []
let json_sidecar : string list ref = ref []
let v4_over_v3_5000 = ref nan

let workdir () = Report.workdir "e12"

let paths () =
  ( Filename.concat (workdir ()) "snapshot.xml",
    Filename.concat (workdir ()) "snapshot.ruid",
    Filename.concat (workdir ()) "journal.wal" )

let fresh_snapshot ~seed ~size ~area =
  let base =
    Rworkload.Shape.generate ~seed ~target:size
      (Rworkload.Shape.Uniform { fanout_lo = 1; fanout_hi = 4 })
  in
  let r2 = R2.number ~max_area_size:area base in
  let xml, sidecar, wal = paths () in
  Persist.save r2 ~xml ~sidecar;
  if Sys.file_exists wal then Sys.remove wal;
  (base, r2, xml, sidecar, wal)

let recovery_table () =
  Report.subsection "E12.a  recovery wall clock vs journal length";
  let size = 2000 and area = 32 in
  let rows =
    List.map
      (fun ops ->
        let base, live, xml, sidecar, wal =
          fresh_snapshot ~seed:121 ~size ~area
        in
        let script =
          List.map Crashsim.wal_op_of_update
            (Updates.script ~seed:122 ~ops base)
        in
        let w = Wal.create wal in
        List.iter (fun op -> ignore (Wal.log_update w live op)) script;
        let journal_bytes = (Unix.stat wal).Unix.st_size in
        let _, t_load = Report.time (fun () -> Persist.load ~xml ~sidecar ()) in
        let rec1, t_replay =
          Report.time (fun () -> Wal.replay ~xml ~sidecar ~wal ())
        in
        let _, t_nocheck =
          Report.time (fun () ->
              Wal.replay ~check:false ~xml ~sidecar ~wal ())
        in
        assert (List.length rec1.Wal.replayed = ops);
        json_recovery :=
          Printf.sprintf
            {|    {"nodes": %d, "ops": %d, "journal_bytes": %d, "load_ns": %.0f, "replay_ns": %.0f, "replay_nocheck_ns": %.0f}|}
            size ops journal_bytes (t_load *. 1e9) (t_replay *. 1e9)
            (t_nocheck *. 1e9)
          :: !json_recovery;
        [
          Report.fint ops;
          Report.fint journal_bytes;
          Report.fns (t_load *. 1e9);
          Report.fns (t_replay *. 1e9);
          Report.fns (t_nocheck *. 1e9);
        ])
      [ 16; 64; 256; 1024 ]
  in
  Report.table
    [ "ops"; "journal B"; "snapshot load"; "replay+check"; "replay" ]
    rows;
  Report.note
    "replay is snapshot load + positional re-application of the journal;";
  Report.note
    "the +check column adds the deep invariant sweep (Ruid2.check) that";
  Report.note "recovery runs as its postcondition."

let append_table () =
  Report.subsection "E12.b  per-operation durability cost";
  let size = 2000 and area = 32 and ops = 64 in
  let rows =
    List.map
      (fun (label, durability) ->
        let base, live, xml, sidecar, wal =
          fresh_snapshot ~seed:123 ~size ~area
        in
        let script =
          List.map Crashsim.wal_op_of_update
            (Updates.script ~seed:124 ~ops base)
        in
        let w = Wal.create wal in
        let _, t =
          Report.time (fun () ->
              List.iter
                (fun op ->
                  match durability with
                  | `Memory -> ignore (Wal.apply live op)
                  | `Wal -> ignore (Wal.log_update w live op)
                  | `Resave ->
                    ignore (Wal.apply live op);
                    Persist.save live ~xml ~sidecar)
                script)
        in
        let per_op = t /. float_of_int ops in
        json_append :=
          Printf.sprintf
            {|    {"mode": "%s", "nodes": %d, "ops": %d, "per_op_ns": %.0f}|}
            label size ops (per_op *. 1e9)
          :: !json_append;
        [ label; Report.fns (per_op *. 1e9) ])
      [
        ("in-memory only", `Memory);
        ("WAL append+fsync", `Wal);
        ("full re-save", `Resave);
      ]
  in
  Report.table [ "durability"; "per op" ] rows;
  Report.note
    "the WAL row is the crash-safe configuration; full re-save is the only";
  Report.note "durable alternative without a journal."

let sidecar_table () =
  Report.subsection "E12.c  sidecar format: v4 (frame only) vs v3 (framed ids) vs v2";
  let docs =
    List.map
      (fun size ->
        ( Printf.sprintf "uniform-%d" size,
          size,
          Rworkload.Shape.generate ~seed:125 ~target:size
            (Rworkload.Shape.Uniform { fanout_lo = 1; fanout_hi = 4 }),
          32 ))
      [ 500; 5000 ]
    @ [ ("xmark-33k", 33_000, Rworkload.Xmark.generate ~seed:7 ~scale:8.0, 64) ]
  in
  let rows =
    List.concat_map
      (fun (name, size, base, area) ->
        let r2 = R2.number ~max_area_size:area base in
        let nodes = Dom.size base in
        let reps = if size > 10_000 then 5 else 20 in
        let enc f =
          let b = ref Bytes.empty in
          let _, t =
            Report.time (fun () ->
                for _ = 1 to reps do
                  b := f r2
                done)
          in
          (!b, t /. float_of_int reps)
        in
        let dec bytes =
          let copies = List.init reps (fun _ -> Dom.clone base) in
          let _, t =
            Report.time (fun () ->
                List.iter
                  (fun copy -> ignore (Persist.sidecar_of_bytes copy bytes))
                  copies)
          in
          t /. float_of_int reps
        in
        let formats =
          List.map
            (fun (v, f) ->
              let b, te = enc f in
              (v, b, te, dec b))
            [
              ("v4", Persist.sidecar_to_bytes);
              ("v3", Persist.sidecar_to_bytes_v3);
              ("v2", Persist.sidecar_to_bytes_v2);
            ]
        in
        let size_of v =
          let _, b, _, _ = List.find (fun (v', _, _, _) -> v' = v) formats in
          float_of_int (Bytes.length b)
        in
        if size = 5000 then v4_over_v3_5000 := size_of "v4" /. size_of "v3";
        List.map
          (fun (v, b, te, td) ->
            json_sidecar :=
              Printf.sprintf
                {|    {"doc": "%s", "nodes": %d, "area": %d, "format": "%s", "bytes": %d, "encode_ns": %.0f, "decode_ns": %.0f}|}
                name nodes area v (Bytes.length b) (te *. 1e9) (td *. 1e9)
              :: !json_sidecar;
            [
              name; Report.fint nodes; v;
              Report.fint (Bytes.length b);
              Printf.sprintf "%.3f" (float_of_int (Bytes.length b) /. size_of "v3");
              Report.fns (te *. 1e9);
              Report.fns (td *. 1e9);
            ])
          formats)
      docs
  in
  Report.table
    [ "doc"; "nodes"; "format"; "bytes"; "/ v3"; "encode"; "decode" ]
    rows;
  Report.note "v4 stores the frame (a distance, a slot and a fan-out per area) and";
  Report.note "restore derives every identifier from it; v3 stores every identifier";
  Report.note "and K and compares them with the derived ones.  v4/v3 bytes at 5,000";
  Report.note "nodes: %.3f (CI gate: at most 0.125)." !v4_over_v3_5000

let write_json path =
  let oc = open_out path in
  let section name rows =
    Printf.sprintf "  \"%s\": [\n%s\n  ]" name
      (String.concat ",\n" (List.rev rows))
  in
  Printf.fprintf oc
    "{\n  \"experiment\": \"E12\",\n%s,\n  \"headline\": {\"v4_over_v3_bytes_5000\": %.4f},\n%s,\n%s,\n%s\n}\n"
    (Report.meta_json ()) !v4_over_v3_5000
    (section "recovery" !json_recovery)
    (section "append" !json_append)
    (section "sidecar" !json_sidecar);
  close_out oc;
  Report.note "wrote %s" path

let run () =
  Report.section "E12  Crash-safe journaling: durability and recovery costs";
  recovery_table ();
  append_table ();
  sidecar_table ();
  write_json "BENCH_recovery.json"
