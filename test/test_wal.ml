(* Crash-safe journaling: the WAL's framing, torn-tail handling, fault
   tolerance, and the headline property — recovery after a crash at an
   arbitrary byte reproduces the numbering exactly, with untouched areas
   byte-identical to the snapshot. *)

module Dom = Rxml.Dom
module R2 = Ruid.Ruid2
module Vfs = Ruid.Vfs
module P = Ruid.Persist
module Wal = Rstorage.Wal
module Fault = Rstorage.Fault
module Crashsim = Rstorage.Crashsim
module Shape = Rworkload.Shape
module Updates = Rworkload.Updates

let dir =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ruid-test-wal-%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists d) then Unix.mkdir d 0o755;
  d

let path name = Filename.concat dir name

(* A numbered snapshot on disk plus its live in-memory instance. *)
let snapshot ?(seed = 11) ?(n = 150) ?(area = 8) stem =
  let root =
    Shape.generate ~seed ~target:n
      (Shape.Uniform { fanout_lo = 1; fanout_hi = 4 })
  in
  let r2 = R2.number ~max_area_size:area root in
  let xml = path (stem ^ ".xml")
  and sidecar = path (stem ^ ".ruid")
  and wal = path (stem ^ ".wal") in
  P.save r2 ~xml ~sidecar;
  if Sys.file_exists wal then Sys.remove wal;
  (root, r2, xml, sidecar, wal)

let script root ~seed ~ops =
  List.map Crashsim.wal_op_of_update (Updates.script ~seed ~ops root)

let test_log_and_scan () =
  let root, live, _xml, _sidecar, wal = snapshot "scan" in
  let w = Wal.create wal in
  let records =
    List.map (fun op -> Wal.log_update w live op) (script root ~seed:1 ~ops:10)
  in
  Alcotest.(check int) "writer seq" 10 (Wal.seq w);
  let s = Wal.scan wal in
  Alcotest.(check int) "all records scanned" 10 (List.length s.Wal.records);
  Alcotest.(check bool) "no damage" true (s.Wal.damage = None);
  Alcotest.(check int) "whole file valid" s.Wal.total_bytes s.Wal.valid_bytes;
  List.iteri
    (fun i r ->
      let logged = List.nth records i in
      Alcotest.(check int) "seq consecutive" (i + 1) r.Wal.seq;
      Alcotest.(check bool) "round-trips intact" true (r = logged))
    s.Wal.records;
  (* Reopen and continue the numbering. *)
  let w2 = Wal.open_append wal in
  Alcotest.(check int) "reopen resumes seq" 10 (Wal.seq w2);
  ignore (Wal.log_update w2 live (Wal.Insert { parent_rank = 0; pos = 0; tag = "more" }));
  Alcotest.(check int) "appended" 11 (List.length (Wal.scan wal).Wal.records)

(* The headline property, across seeds and cut points: Crashsim raises
   Mismatch when recovery and the in-memory replica disagree. *)
let test_crash_recovery_equivalence () =
  for seed = 1 to 6 do
    let o = Crashsim.run ~dir ~seed ~ops:40 ~size:150 ~area:8 () in
    Alcotest.(check bool) "survived prefix bounded by script"
      true
      (o.Crashsim.ops_survived <= o.Crashsim.ops_total)
  done;
  (* Degenerate cuts: everything lost, nothing lost. *)
  let all_lost = Crashsim.run ~dir ~seed:7 ~ops:20 ~cut:0 () in
  Alcotest.(check int) "cut at 0 recovers the bare snapshot" 0
    all_lost.Crashsim.ops_survived;
  let none_lost = Crashsim.run ~dir ~seed:8 ~ops:20 ~cut:max_int () in
  Alcotest.(check int) "cut past the end loses nothing" 20
    none_lost.Crashsim.ops_survived

let test_torn_tail () =
  let root, live, xml, sidecar, wal = snapshot "torn" in
  let w = Wal.create wal in
  List.iter
    (fun op -> ignore (Wal.log_update w live op))
    (script root ~seed:2 ~ops:5);
  let full = Wal.scan wal in
  Fault.torn_tail wal ~keep:(full.Wal.total_bytes - 2);
  let s = Wal.scan wal in
  Alcotest.(check int) "one record torn off" 4 (List.length s.Wal.records);
  Alcotest.(check bool) "tear reported" true (s.Wal.damage <> None);
  (* Replay still recovers the valid prefix. *)
  let r = Wal.replay ~xml ~sidecar ~wal () in
  Alcotest.(check int) "replayed the prefix" 4 (List.length r.Wal.replayed);
  (* fsck: recoverable, exit 1. *)
  let st = Wal.fsck ~xml ~sidecar ~wal () in
  Alcotest.(check int) "recoverable -> exit 1" 1 (Wal.exit_code st);
  (* open_append refuses the damaged journal unless asked to repair. *)
  (match Wal.open_append wal with
  | _ -> Alcotest.fail "open_append must refuse a torn journal"
  | exception Invalid_argument _ -> ());
  let w2 = Wal.open_append ~repair:true wal in
  Alcotest.(check int) "repair resumes after the valid prefix" 4 (Wal.seq w2);
  let s2 = Wal.scan wal in
  Alcotest.(check bool) "tail gone" true (s2.Wal.damage = None);
  Alcotest.(check int) "truncated to the prefix" s.Wal.valid_bytes
    s2.Wal.total_bytes;
  Alcotest.(check int) "fsck clean after repair" 0
    (Wal.exit_code (Wal.fsck ~xml ~sidecar ~wal ()))

let test_corrupt_record () =
  let root, live, xml, sidecar, wal = snapshot "flip" in
  let w = Wal.create wal in
  List.iter
    (fun op -> ignore (Wal.log_update w live op))
    (script root ~seed:3 ~ops:6);
  (* Flip one bit in the middle of the record region: the scan must stop at
     the corrupt record, keeping the prefix. *)
  let total = (Wal.scan wal).Wal.total_bytes in
  Fault.flip_bit wal ~bit:(((5 + total) / 2) * 8 + 3);
  let s = Wal.scan wal in
  Alcotest.(check bool) "corruption detected" true (s.Wal.damage <> None);
  Alcotest.(check bool) "prefix survives" true (List.length s.Wal.records < 6);
  Alcotest.(check int) "fsck: corrupt journal is recoverable" 1
    (Wal.exit_code (Wal.fsck ~xml ~sidecar ~wal ()))

let test_corrupt_snapshot () =
  let _root, _live, xml, sidecar, wal = snapshot "snapbad" in
  ignore (Wal.create wal);
  (* Any bit of the sidecar: fsck must call the state unrecoverable. *)
  Fault.flip_bit sidecar ~bit:(8 * 40);
  let st = Wal.fsck ~xml ~sidecar ~wal () in
  Alcotest.(check int) "corrupt sidecar -> exit 2" 2 (Wal.exit_code st);
  (match Wal.replay ~xml ~sidecar ~wal () with
  | _ -> Alcotest.fail "replay over a corrupt snapshot must fail"
  | exception Invalid_argument _ -> ())

let test_journal_mismatch () =
  let _root, _live, xml, sidecar, wal = snapshot "mismatch" in
  (* A syntactically valid journal whose operations do not describe this
     snapshot: rank far out of range. *)
  let w = Wal.create wal in
  Wal.append_record w
    { Wal.seq = 1; op = Wal.Delete { rank = 99_999 }; area = 0; changed = 0 };
  (match Wal.replay ~xml ~sidecar ~wal () with
  | _ -> Alcotest.fail "expected Replay_error"
  | exception Wal.Replay_error _ -> ());
  Alcotest.(check int) "mismatched journal -> exit 2" 2
    (Wal.exit_code (Wal.fsck ~xml ~sidecar ~wal ()));
  (* A journaled renumber record that disagrees with what replay does is
     equally unrecoverable. *)
  let root2, live2, xml2, sidecar2, wal2 = snapshot "mismatch2" in
  let w2 = Wal.create wal2 in
  let op = List.hd (script root2 ~seed:4 ~ops:1) in
  let r = Wal.log_update w2 live2 op in
  Sys.remove wal2;
  let w3 = Wal.create wal2 in
  Wal.append_record w3 { r with Wal.changed = r.Wal.changed + 1 };
  match Wal.replay ~xml:xml2 ~sidecar:sidecar2 ~wal:wal2 () with
  | _ -> Alcotest.fail "expected Replay_error on renumber-record mismatch"
  | exception Wal.Replay_error _ -> ()

let test_missing_journal () =
  let _root, live, xml, sidecar, _wal = snapshot "nolog" in
  let r = Wal.replay ~xml ~sidecar ~wal:(path "does-not-exist.wal") () in
  Alcotest.(check int) "bare snapshot, nothing replayed" 0
    (List.length r.Wal.replayed);
  Alcotest.(check int) "same numbering"
    (List.length (R2.all_nodes live))
    (List.length (R2.all_nodes r.Wal.r2));
  Alcotest.(check int) "fsck without a journal" 0
    (Wal.exit_code (Wal.fsck ~xml ~sidecar ()))

let test_crash_during_append () =
  let root, live, xml, sidecar, wal = snapshot "midappend" in
  let w = Wal.create wal in
  let ops = script root ~seed:5 ~ops:4 in
  List.iteri
    (fun i op -> if i < 3 then ignore (Wal.log_update w live op))
    ops;
  (* The fourth append dies mid-write. *)
  let p = Fault.plan ~seed:6 ~p_short_write:1.0 () in
  let wf = Wal.open_append ~vfs:(Fault.wrap p Vfs.real) wal in
  (match Wal.log_update wf live (List.nth ops 3) with
  | _ -> Alcotest.fail "expected the injected crash"
  | exception Vfs.Crash _ -> ());
  (* Recovery: the three committed operations survive; the torn fourth is
     dropped (or never reached the file at all). *)
  let r = Wal.replay ~xml ~sidecar ~wal () in
  Alcotest.(check int) "committed prefix recovered" 3
    (List.length r.Wal.replayed);
  let code = Wal.exit_code (Wal.fsck ~xml ~sidecar ~wal ()) in
  Alcotest.(check bool) "clean or recoverable, never unrecoverable" true
    (code = 0 || code = 1)

(* ------------------------------------------------------------------ *)
(* Group commit: batch frames                                          *)
(* ------------------------------------------------------------------ *)

let encoded_ids r2 =
  List.map
    (fun n -> Bytes.to_string (Ruid.Codec.encode_ruid2 (R2.id_of_node r2 n)))
    (R2.all_nodes r2)

(* Apply ops to [live] and build the consecutive records a commit leader
   would hand to append_batch. *)
let build_batch w live ops =
  let base = Wal.seq w in
  List.mapi
    (fun i op ->
      let area, changed = Wal.apply live op in
      { Wal.seq = base + 1 + i; op; area; changed })
    ops

let test_batch_append_scan () =
  let root, live, xml, sidecar, wal = snapshot "batch" in
  let w = Wal.create wal in
  let ops = script root ~seed:21 ~ops:9 in
  let single = List.filteri (fun i _ -> i < 3) ops
  and grouped = List.filteri (fun i _ -> i >= 3) ops in
  List.iter (fun op -> ignore (Wal.log_update w live op)) single;
  Wal.append_batch w (build_batch w live grouped);
  Alcotest.(check int) "seq advanced through the batch" 9 (Wal.seq w);
  let s = Wal.scan wal in
  Alcotest.(check int) "all records scanned" 9 (List.length s.Wal.records);
  Alcotest.(check int) "one batch frame" 1 s.Wal.batches;
  Alcotest.(check bool) "no damage" true (s.Wal.damage = None);
  let r = Wal.replay ~xml ~sidecar ~wal () in
  Alcotest.(check int) "replay crosses the batch frame" 9
    (List.length r.Wal.replayed);
  (* A reopened writer resumes after the batch; a singleton batch encodes
     as a plain record frame, so the batch count stays honest. *)
  let w2 = Wal.open_append wal in
  Alcotest.(check int) "reopen resumes" 9 (Wal.seq w2);
  Wal.append_batch w2
    (build_batch w2 live [ Wal.Insert { parent_rank = 0; pos = 0; tag = "x" } ]);
  Alcotest.(check int) "singleton batch is not a batch frame" 1
    (Wal.scan wal).Wal.batches;
  (* Refused batches: empty, and sequence gaps. *)
  (match Wal.append_batch w2 [] with
  | () -> Alcotest.fail "empty batch must be refused"
  | exception Invalid_argument _ -> ());
  match
    Wal.append_batch w2
      [ { Wal.seq = Wal.seq w2 + 5; op = Wal.Delete { rank = 1 };
          area = 0; changed = 0 } ]
  with
  | () -> Alcotest.fail "non-consecutive batch must be refused"
  | exception Invalid_argument _ -> ()

let test_torn_batch_drops_atomically () =
  let root, live, xml, sidecar, wal = snapshot "tornbatch" in
  let w = Wal.create wal in
  let ops = script root ~seed:22 ~ops:8 in
  let single = List.filteri (fun i _ -> i < 4) ops
  and grouped = List.filteri (fun i _ -> i >= 4) ops in
  List.iter (fun op -> ignore (Wal.log_update w live op)) single;
  let before = (Wal.scan wal).Wal.total_bytes in
  Wal.append_batch w (build_batch w live grouped);
  let after = (Wal.scan wal).Wal.total_bytes in
  (* One checksum covers the whole batch: a tear one byte short of the end
     must drop all four records, never a prefix of the group commit. *)
  Fault.torn_tail wal ~keep:(after - 1);
  let s = Wal.scan wal in
  Alcotest.(check int) "whole batch dropped" 4 (List.length s.Wal.records);
  Alcotest.(check int) "valid prefix ends before the batch frame" before
    s.Wal.valid_bytes;
  Alcotest.(check bool) "tear reported" true (s.Wal.damage <> None);
  let r = Wal.replay ~xml ~sidecar ~wal () in
  Alcotest.(check int) "recovery at the pre-batch state" 4
    (List.length r.Wal.replayed);
  ignore (Wal.repair wal);
  Alcotest.(check int) "clean after repair" 0
    (Wal.exit_code (Wal.fsck ~xml ~sidecar ~wal ()))

let test_nosync_append_and_flush () =
  let root, live, xml, sidecar, wal = snapshot "nosync" in
  let w = Wal.create wal in
  List.iteri
    (fun i op -> ignore (Wal.log_update ~sync:(i mod 2 = 0) w live op))
    (script root ~seed:23 ~ops:6);
  Wal.flush w;
  let r = Wal.replay ~xml ~sidecar ~wal () in
  Alcotest.(check int) "all six present after flush" 6
    (List.length r.Wal.replayed);
  (* A record appended without sync can be lost wholesale before the
     flush: simulate the page-cache loss with a tear at the old end —
     recovery sees the shorter, still-consistent prefix. *)
  let before = (Wal.scan wal).Wal.total_bytes in
  let w2 = Wal.open_append wal in
  ignore
    (Wal.log_update ~sync:false w2 live
       (Wal.Insert { parent_rank = 0; pos = 0; tag = "lost" }));
  Fault.torn_tail wal ~keep:before;
  let r2 = Wal.replay ~xml ~sidecar ~wal () in
  Alcotest.(check int) "unsynced record lost cleanly" 6
    (List.length r2.Wal.replayed)

let test_group_commit_crash_equivalence () =
  (* The batched oracle: with every frame a full batch of 8, any tear
     snaps the surviving prefix to a batch boundary. *)
  for seed = 40 to 49 do
    let o = Crashsim.run ~dir ~seed ~ops:48 ~size:150 ~area:8 ~batch:8 () in
    Alcotest.(check bool) "survived prefix bounded" true
      (o.Crashsim.ops_survived <= o.Crashsim.ops_total);
    Alcotest.(check int) "survival is batch-atomic" 0
      (o.Crashsim.ops_survived mod 8)
  done

(* ------------------------------------------------------------------ *)
(* Segment rotation + checkpointing                                    *)
(* ------------------------------------------------------------------ *)

let test_checkpoint_rotation () =
  let root, live, xml, sidecar, wal = snapshot "ckpt" in
  let w = Wal.create wal in
  let ops = script root ~seed:24 ~ops:12 in
  let first = List.filteri (fun i _ -> i < 7) ops
  and rest = List.filteri (fun i _ -> i >= 7) ops in
  List.iter (fun op -> ignore (Wal.log_update w live op)) first;
  Alcotest.(check bool) "below threshold" false
    (Wal.should_rotate w ~threshold:1_000_000);
  Alcotest.(check bool) "threshold 0 disables" false
    (Wal.should_rotate w ~threshold:0);
  Alcotest.(check bool) "above threshold" true (Wal.should_rotate w ~threshold:1);
  let gen =
    Wal.rotate w ~xml:(P.xml_to_bytes live) ~sidecar:(P.sidecar_to_bytes live)
  in
  Alcotest.(check int) "first generation" 1 gen;
  Alcotest.(check int) "writer tracks it" 1 (Wal.generation w);
  Alcotest.(check int) "sequence survives rotation" 7 (Wal.seq w);
  let cx, cs = Wal.checkpoint_files wal 1 in
  Alcotest.(check bool) "checkpoint files published" true
    (Sys.file_exists cx && Sys.file_exists cs);
  Alcotest.(check bool) "retired segment archived" true
    (Sys.file_exists (wal ^ ".seg1"));
  List.iter (fun op -> ignore (Wal.log_update w live op)) rest;
  let s = Wal.scan wal in
  Alcotest.(check bool) "checkpoint frame survives" true
    (s.Wal.ckpt_expected && s.Wal.checkpoint <> None);
  Alcotest.(check int) "segment holds only the tail" 5
    (List.length s.Wal.records);
  (* Recovery starts from the checkpoint and must equal a full in-memory
     replay of the entire script over the base snapshot — byte for byte. *)
  let r = Wal.replay ~xml ~sidecar ~wal () in
  Alcotest.(check int) "replayed the tail only" 5 (List.length r.Wal.replayed);
  let _doc, replica = P.load ~xml ~sidecar () in
  List.iter (fun op -> ignore (Wal.apply replica op)) ops;
  Alcotest.(check bool) "checkpoint recovery byte-identical to full replay"
    true
    (encoded_ids r.Wal.r2 = encoded_ids replica);
  Alcotest.(check int) "fsck clean" 0
    (Wal.exit_code (Wal.fsck ~xml ~sidecar ~wal ()));
  (* Reopen resumes sequence and generation.  A follower still on
     generation 1 holds the pair [ckpt1] and a prefix of the generation-1
     segment; keep that much aside before the second rotation retires
     both here. *)
  let w2 = Wal.open_append wal in
  Alcotest.(check int) "resume seq" 12 (Wal.seq w2);
  Alcotest.(check int) "resume generation" 1 (Wal.generation w2);
  let read f =
    let ic = open_in_bin f in
    let b = really_input_string ic (in_channel_length ic) in
    close_in ic;
    b
  in
  let write f b =
    let oc = open_out_bin f in
    output_string oc b;
    close_out oc
  in
  let follower = path "ckpt-follower.wal" in
  let fx, fs = Wal.checkpoint_files follower 1 in
  write fx (read cx);
  write fs (read cs);
  let gen1_segment = read wal in
  ignore
    (Wal.rotate w2 ~xml:(P.xml_to_bytes live)
       ~sidecar:(P.sidecar_to_bytes live));
  (* The bound: the second rotation keeps its own pair and archive only. *)
  Alcotest.(check bool) "previous generation's pair retired" false
    (Sys.file_exists cx || Sys.file_exists cs);
  Alcotest.(check bool) "previous generation's archive retired" false
    (Sys.file_exists (wal ^ ".seg1"));
  Alcotest.(check int) "still clean" 0
    (Wal.exit_code (Wal.fsck ~xml ~sidecar ~wal ()));
  (* The archive is the follower's bridge, not a recovery artifact: it is
     the generation-1 segment byte for byte, and over the pair the
     follower kept it replays records 8..12 to the live state. *)
  Alcotest.(check bool) "archive is the retired segment" true
    (read (wal ^ ".seg2") = gen1_segment);
  write follower (read (wal ^ ".seg2"));
  let ra = Wal.replay ~xml ~sidecar ~wal:follower () in
  Alcotest.(check int) "bridge replays its tail over the follower's pair" 5
    (List.length ra.Wal.replayed);
  Alcotest.(check bool) "bridge replay byte-identical to the live state"
    true
    (encoded_ids ra.Wal.r2 = encoded_ids live)

let test_unsupported_version () =
  (* A v1 journal (older build) is a well-formed file this build cannot
     read: it must be diagnosed by name and left byte-for-byte untouched —
     never mistaken for a torn header and "repaired" into an empty v2
     journal, and never silently recovered around (which would drop every
     v1 record). *)
  let _root, _live, xml, sidecar, _ = snapshot "v1" in
  let wal = path "v1.wal" in
  let body = "RWAL\x01pretend-v1-records" in
  let oc = open_out_bin wal in
  output_string oc body;
  close_out oc;
  let s = Wal.scan wal in
  Alcotest.(check int) "version recognized" 1 s.Wal.version;
  Alcotest.(check bool) "flagged as unsupported, not a bad header" true
    (match s.Wal.damage with
    | Some why ->
      String.length why >= 11 && String.sub why 0 11 = "unsupported"
    | None -> false);
  ignore (Wal.repair wal);
  let ic = open_in_bin wal in
  let after = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "repair leaves the file untouched" body after;
  (match Wal.open_append wal with
  | _ -> Alcotest.fail "open_append must refuse a v1 journal"
  | exception Invalid_argument _ -> ());
  (match Wal.open_append ~repair:true wal with
  | _ -> Alcotest.fail "repair cannot adopt a v1 journal either"
  | exception Invalid_argument _ -> ());
  (match Wal.replay ~xml ~sidecar ~wal () with
  | _ -> Alcotest.fail "replay must not recover around v1 records"
  | exception Wal.Replay_error _ -> ());
  Alcotest.(check int) "fsck: unrecoverable by this build" 2
    (Wal.exit_code (Wal.fsck ~xml ~sidecar ~wal ()))

let test_checkpoint_damage () =
  let root, live, xml, sidecar, wal = snapshot "ckptbad" in
  let w = Wal.create wal in
  List.iter
    (fun op -> ignore (Wal.log_update w live op))
    (script root ~seed:25 ~ops:6);
  ignore
    (Wal.rotate w ~xml:(P.xml_to_bytes live)
       ~sidecar:(P.sidecar_to_bytes live));
  let seg_bytes = (Wal.scan wal).Wal.total_bytes in
  (* Checkpoint bytes failing the checkpoint record's checksum are
     unrecoverable — the record vouches for exact bytes. *)
  let _cx, cs = Wal.checkpoint_files wal 1 in
  Fault.flip_bit cs ~bit:(8 * 10);
  Alcotest.(check int) "corrupt checkpoint sidecar -> exit 2" 2
    (Wal.exit_code (Wal.fsck ~xml ~sidecar ~wal ()));
  Fault.flip_bit cs ~bit:(8 * 10);
  Alcotest.(check int) "bit flipped back -> clean" 0
    (Wal.exit_code (Wal.fsck ~xml ~sidecar ~wal ()));
  (* A checkpoint segment whose checkpoint frame did not survive must
     refuse recovery: falling back to the base snapshot would silently
     lose the checkpointed operations. *)
  Fault.torn_tail wal ~keep:(seg_bytes - 1);
  let s = Wal.scan wal in
  Alcotest.(check bool) "declared but missing" true
    (s.Wal.ckpt_expected && s.Wal.checkpoint = None);
  (match Wal.replay ~xml ~sidecar ~wal () with
  | _ -> Alcotest.fail "replay must refuse the silent fallback"
  | exception Wal.Replay_error _ -> ());
  Alcotest.(check int) "unrecoverable" 2
    (Wal.exit_code (Wal.fsck ~xml ~sidecar ~wal ()));
  (match Wal.open_append wal with
  | _ -> Alcotest.fail "open_append must refuse"
  | exception Invalid_argument _ -> ());
  (match Wal.open_append ~repair:true wal with
  | _ -> Alcotest.fail "repair cannot help either"
  | exception Invalid_argument _ -> ());
  let before = (Wal.scan wal).Wal.total_bytes in
  ignore (Wal.repair wal);
  Alcotest.(check int) "repair leaves the segment untouched" before
    (Wal.scan wal).Wal.total_bytes

let test_checkpoint_crash_equivalence () =
  (* The oracle through a rotation, on 10 seeds: recovery = checkpointed
     prefix + replayed tail, always equivalent to the in-memory replica,
     and the tear never reaches below the rotated segment. *)
  for seed = 60 to 69 do
    let o =
      Crashsim.run ~dir ~seed ~ops:40 ~size:150 ~area:8 ~batch:4
        ~checkpoint_after:20 ()
    in
    Alcotest.(check int) "checkpoint folded exactly 20 ops" 20
      o.Crashsim.checkpoint_ops;
    Alcotest.(check bool) "never below the checkpointed prefix" true
      (o.Crashsim.ops_survived >= 20);
    Alcotest.(check bool) "bounded by the script" true
      (o.Crashsim.ops_survived <= o.Crashsim.ops_total)
  done

let test_cross_group_crash_independence () =
  (* The commit-pipeline contract at the storage layer, on 10 seeds:
     four documents labeled over two commit groups journal interleaved
     scripts, one journal is torn, and Crashsim.run_group raises
     Mismatch unless every other document — victim's group or not —
     replays all of its operations byte-identical and fscks Clean. *)
  for seed = 80 to 89 do
    let o = Crashsim.run_group ~dir ~seed ~docs:4 ~groups:2 ~ops:24 () in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: every non-victim document intact" seed)
      3 o.Crashsim.g_intact_docs;
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: victim prefix bounded" seed)
      true
      (o.Crashsim.g_victim_survived <= o.Crashsim.g_victim_total);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: victim group labeled" seed)
      true
      (o.Crashsim.g_victim_group >= 0 && o.Crashsim.g_victim_group < 2)
  done;
  (* The group labeling is the server's placement hash: stable, total. *)
  Alcotest.(check int) "one group maps everything to 0" 0
    (Crashsim.group_of ~groups:1 "anything");
  Alcotest.(check int) "labels deterministic"
    (Crashsim.group_of ~groups:4 "doc3")
    (Crashsim.group_of ~groups:4 "doc3")

let members = Util.family_members
let bound = Util.family_bound

(* Base and checkpoint files written before v4 stay on disk across an
   upgrade: a family whose sidecars are all v3 replays through the v3
   reader to the live identifiers. *)
let test_v3_family_replays () =
  let root, live, xml, sidecar, wal = snapshot ~seed:13 "v3family" in
  P.store_atomic Vfs.real ~attempts:1 sidecar (P.sidecar_to_bytes_v3 live);
  let w = Wal.create wal in
  let ops = script root ~seed:31 ~ops:12 in
  List.iteri
    (fun i op ->
      ignore (Wal.log_update w live op);
      if i = 5 then
        ignore
          (Wal.rotate w ~xml:(P.xml_to_bytes live)
             ~sidecar:(P.sidecar_to_bytes_v3 live)))
    ops;
  let _, cs = Wal.checkpoint_files wal 1 in
  List.iter
    (fun f ->
      Alcotest.(check int) (f ^ " is v3") 3 (P.version_of_bytes (Vfs.real.Vfs.load f)))
    [ sidecar; cs ];
  let r = Wal.replay ~xml ~sidecar ~wal () in
  Alcotest.(check int) "replayed the tail" 6 (List.length r.Wal.replayed);
  R2.check r.Wal.r2;
  Alcotest.(check bool) "replay reaches the live identifiers" true
    (encoded_ids r.Wal.r2 = encoded_ids live);
  Alcotest.(check int) "fsck clean" 0
    (Wal.exit_code (Wal.fsck ~xml ~sidecar ~wal ()))

let test_family_enumeration () =
  (* Wal.family discovers every on-disk artifact of a journal — active
     segment, checkpoint pairs, archived segments — in generation order,
     from the directory alone.  DROPDOC relies on this list to remove a
     document without leaking archives.  After two rotations it is the
     bound: the active segment, the second pair and the second archive. *)
  let root, live, _xml, _sidecar, wal = snapshot "fam" in
  let w = Wal.create wal in
  let ops = script root ~seed:26 ~ops:9 in
  let chunk i = List.filteri (fun j _ -> j / 3 = i) ops in
  List.iter (fun op -> ignore (Wal.log_update w live op)) (chunk 0);
  ignore
    (Wal.rotate w ~xml:(P.xml_to_bytes live)
       ~sidecar:(P.sidecar_to_bytes live));
  List.iter (fun op -> ignore (Wal.log_update w live op)) (chunk 1);
  ignore
    (Wal.rotate w ~xml:(P.xml_to_bytes live)
       ~sidecar:(P.sidecar_to_bytes live));
  List.iter (fun op -> ignore (Wal.log_update w live op)) (chunk 2);
  Alcotest.(check bool) "active + the second pair + the second archive" true
    (members wal = bound 2);
  List.iter
    (fun (_, p) ->
      Alcotest.(check bool) (p ^ " exists") true (Sys.file_exists p))
    (Wal.family wal);
  (* A sibling journal's family is untouched by ours. *)
  let _, _, _, _, wal2 = snapshot "famsib" in
  let w2 = Wal.create wal2 in
  ignore
    (Wal.log_update w2 live (Wal.Insert { parent_rank = 0; pos = 0; tag = "s" }));
  Alcotest.(check int) "sibling family is just its active segment" 1
    (List.length (Wal.family wal2))

(* However often a journal rotates, its family stays one pair and two
   segments, and recovery reads none of what the rotations removed. *)
let test_family_bound () =
  let root, live, xml, sidecar, wal = snapshot "bound" in
  let w = Wal.create wal in
  let ops = script root ~seed:27 ~ops:24 in
  List.iteri
    (fun i op ->
      ignore (Wal.log_update w live op);
      if i mod 3 = 2 then
        ignore
          (Wal.rotate w ~xml:(P.xml_to_bytes live)
             ~sidecar:(P.sidecar_to_bytes live)))
    ops;
  Alcotest.(check int) "eight rotations" 8 (Wal.generation w);
  Alcotest.(check bool) "family is the bound of generation 8" true
    (members wal = bound 8);
  let r = Wal.replay ~xml ~sidecar ~wal () in
  Alcotest.(check bool) "recovery byte-identical to the live state" true
    (encoded_ids r.Wal.r2 = encoded_ids live);
  (* A fresh journal at the same path starts generation 0: trimmed to it,
     an earlier run's pair and archive go. *)
  ignore (Wal.create wal);
  Wal.trim wal ~gen:0;
  Alcotest.(check bool) "generation 0 keeps the active segment only" true
    (members wal = [ Wal.Active ])

(* A crash after a rotation's commit rename but before its trim: the
   new segment is in force and recovers the same state, the leftovers
   are only leftovers, and the next rotation removes them. *)
let test_crash_before_trim () =
  let root, live, xml, sidecar, wal = snapshot "trimcrash" in
  let w = Wal.create wal in
  let ops = script root ~seed:28 ~ops:12 in
  let rotate w =
    ignore
      (Wal.rotate w ~xml:(P.xml_to_bytes live)
         ~sidecar:(P.sidecar_to_bytes live))
  in
  List.iteri
    (fun i op ->
      ignore (Wal.log_update w live op);
      if i = 3 then rotate w)
    (List.filteri (fun i _ -> i < 8) ops);
  (* power fails at the first removal of the second rotation's trim *)
  let dying =
    { Vfs.real with Vfs.remove = (fun _ -> raise (Vfs.Crash "power")) }
  in
  let wd = Wal.open_append ~vfs:dying wal in
  (match rotate wd with
  | () -> Alcotest.fail "the trim should have crashed"
  | exception Vfs.Crash _ -> ());
  Alcotest.(check int) "the rotation committed" 2
    (match (Wal.scan wal).Wal.checkpoint with
    | Some c -> c.Wal.gen
    | None -> 0);
  Alcotest.(check bool) "leftovers of generation 1 remain" true
    (List.mem (Wal.Checkpoint_xml 1) (members wal)
    && List.mem (Wal.Segment 1) (members wal));
  let r = Wal.replay ~xml ~sidecar ~wal () in
  Alcotest.(check bool) "recovery equals the state at the commit" true
    (encoded_ids r.Wal.r2 = encoded_ids live);
  Alcotest.(check int) "fsck clean" 0
    (Wal.exit_code (Wal.fsck ~xml ~sidecar ~wal ()));
  (* after the restart: more records, and the next rotation trims *)
  let w3 = Wal.open_append wal in
  List.iter
    (fun op -> ignore (Wal.log_update w3 live op))
    (List.filteri (fun i _ -> i >= 8) ops);
  rotate w3;
  Alcotest.(check bool) "the next rotation removes the leftovers" true
    (members wal = bound 3);
  let r = Wal.replay ~xml ~sidecar ~wal () in
  Alcotest.(check bool) "and recovers the live state" true
    (encoded_ids r.Wal.r2 = encoded_ids live)

let test_transient_faults_absorbed () =
  (* The whole pipeline — save, journaling, recovery — under a transient
     fault plan whose bursts stay below the retry budget. *)
  let root =
    Shape.generate ~seed:31 ~target:120
      (Shape.Uniform { fanout_lo = 1; fanout_hi = 4 })
  in
  let r2 = R2.number ~max_area_size:8 root in
  let xml = path "transient.xml"
  and sidecar = path "transient.ruid"
  and wal = path "transient.wal" in
  let plan = Fault.plan ~seed:32 ~p_transient:0.25 ~transient_burst:2 () in
  let vfs = Fault.wrap plan Vfs.real in
  P.save ~vfs ~attempts:5 r2 ~xml ~sidecar;
  let w = Wal.create ~vfs ~attempts:5 wal in
  List.iter
    (fun op -> ignore (Wal.log_update w r2 op))
    (script root ~seed:33 ~ops:15);
  let r = Wal.replay ~vfs ~attempts:5 ~xml ~sidecar ~wal () in
  Alcotest.(check int) "all operations survived the weather" 15
    (List.length r.Wal.replayed);
  Alcotest.(check bool) "transients actually fired" true
    (Fault.events plan <> [])

let suite =
  [
    Alcotest.test_case "log, scan, reopen" `Quick test_log_and_scan;
    Alcotest.test_case "crash-recovery equivalence (headline)" `Quick
      test_crash_recovery_equivalence;
    Alcotest.test_case "torn tail" `Quick test_torn_tail;
    Alcotest.test_case "corrupt record" `Quick test_corrupt_record;
    Alcotest.test_case "corrupt snapshot" `Quick test_corrupt_snapshot;
    Alcotest.test_case "journal/snapshot mismatch" `Quick test_journal_mismatch;
    Alcotest.test_case "missing journal" `Quick test_missing_journal;
    Alcotest.test_case "crash during append" `Quick test_crash_during_append;
    Alcotest.test_case "batch frames: append + scan" `Quick
      test_batch_append_scan;
    Alcotest.test_case "torn batch drops atomically" `Quick
      test_torn_batch_drops_atomically;
    Alcotest.test_case "nosync append + flush" `Quick
      test_nosync_append_and_flush;
    Alcotest.test_case "group-commit crash equivalence" `Quick
      test_group_commit_crash_equivalence;
    Alcotest.test_case "checkpoint rotation" `Quick test_checkpoint_rotation;
    Alcotest.test_case "unsupported journal version refused" `Quick
      test_unsupported_version;
    Alcotest.test_case "checkpoint damage refused" `Quick
      test_checkpoint_damage;
    Alcotest.test_case "checkpoint crash equivalence (10 seeds)" `Quick
      test_checkpoint_crash_equivalence;
    Alcotest.test_case "cross-group crash independence (10 seeds)" `Quick
      test_cross_group_crash_independence;
    Alcotest.test_case "v3 base and checkpoint replay" `Quick
      test_v3_family_replays;
    Alcotest.test_case "family enumeration" `Quick test_family_enumeration;
    Alcotest.test_case "family bound across rotations" `Quick
      test_family_bound;
    Alcotest.test_case "crash between commit and trim" `Quick
      test_crash_before_trim;
    Alcotest.test_case "transient faults absorbed" `Quick
      test_transient_faults_absorbed;
  ]
