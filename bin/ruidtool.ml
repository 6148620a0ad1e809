(* ruidtool — command-line front end to the ruid library.

   Subcommands: generate, stats, number, parent, query, update-sim.
   Try: dune exec bin/ruidtool.exe -- number --help *)

open Cmdliner

module Dom = Rxml.Dom
module R2 = Ruid.Ruid2

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let input_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Input XML document.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let area_arg =
  Arg.(
    value
    & opt int 64
    & info [ "area" ] ~docv:"N"
        ~doc:"Maximal number of nodes enumerated per UID-local area.")

let load path = Rxml.Parser.parse_file path |> Dom.root_element

(* ------------------------------------------------------------------ *)
(* generate                                                            *)
(* ------------------------------------------------------------------ *)

let generate_cmd =
  let kind =
    Arg.(
      value
      & opt (enum [ ("xmark", `Xmark); ("dblp", `Dblp); ("uniform", `Uniform);
                    ("deep", `Deep); ("chain", `Chain) ])
          `Xmark
      & info [ "kind" ] ~docv:"KIND"
          ~doc:"Document family: $(b,xmark), $(b,dblp), $(b,uniform), $(b,deep) or $(b,chain).")
  in
  let size =
    Arg.(
      value & opt int 1000
      & info [ "size" ] ~docv:"N" ~doc:"Approximate number of element nodes.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path (default stdout).")
  in
  let run kind size seed out =
    let root =
      match kind with
      | `Xmark ->
        Rworkload.Xmark.generate ~seed ~scale:(float_of_int size /. 2000.)
      | `Dblp -> Rworkload.Dblp.generate ~seed ~publications:(max 1 (size / 12))
      | `Uniform ->
        Rworkload.Shape.generate ~seed ~target:size
          (Rworkload.Shape.Uniform { fanout_lo = 0; fanout_hi = 5 })
      | `Deep ->
        Rworkload.Shape.generate ~seed ~target:size
          (Rworkload.Shape.Deep { fanout = 3; bias = 0.85 })
      | `Chain -> Rworkload.Shape.chain ~depth:(max 1 (size - 1)) ()
    in
    let xml = Rxml.Serializer.to_string ~indent:2 root in
    match out with
    | None -> print_endline xml
    | Some path ->
      let oc = open_out path in
      output_string oc xml;
      output_string oc "\n";
      close_out oc;
      Printf.printf "wrote %d nodes to %s\n" (Dom.size root) path
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic XML document.")
    Term.(const run $ kind $ size $ seed_arg $ out)

(* ------------------------------------------------------------------ *)
(* stats                                                               *)
(* ------------------------------------------------------------------ *)

let stats_cmd =
  let run path =
    let root = load path in
    let st = Rxml.Stats.compute root in
    Format.printf "%a@." Rxml.Stats.pp st;
    print_endline "fan-out histogram (degree: nodes):";
    List.iter
      (fun (deg, count) -> Printf.printf "  %4d: %d\n" deg count)
      (Rxml.Stats.fanout_histogram root)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print shape statistics of a document.")
    Term.(const run $ input_arg)

(* ------------------------------------------------------------------ *)
(* number                                                              *)
(* ------------------------------------------------------------------ *)

let number_cmd =
  let show =
    Arg.(
      value & opt int 20
      & info [ "show" ] ~docv:"N" ~doc:"How many node identifiers to list.")
  in
  let run path area show =
    let root = load path in
    match R2.number ~max_area_size:area root with
    | r2 ->
      Printf.printf "nodes: %d   kappa: %d   areas: %d   aux memory: %d words\n"
        (Dom.size root) (R2.kappa r2) (R2.area_count r2)
        (R2.aux_memory_words r2);
      Format.printf "K table:@.%a@." Ruid.Ktable.pp (R2.ktable r2);
      Printf.printf "first %d identifiers (document order):\n" show;
      List.iteri
        (fun i n ->
          if i < show then
            Printf.printf "  %-24s %s\n"
              (Format.asprintf "%a" Dom.pp_kind n)
              (R2.id_to_string (R2.id_of_node r2 n)))
        (R2.all_nodes r2)
    | exception Ruid.Uid.Overflow ->
      print_endline
        "2-level numbering overflows on this document; multilevel view:";
      let m = Ruid.Mruid.build root in
      Printf.printf "levels: %d   K rows: %d   widest component: %d bits\n"
        (Ruid.Mruid.levels m) (Ruid.Mruid.area_count m)
        (Ruid.Mruid.max_component_bits m);
      List.iteri
        (fun i n ->
          if i < show then
            Printf.printf "  %-24s %s\n"
              (Format.asprintf "%a" Dom.pp_kind n)
              (Ruid.Mruid.id_to_string (Ruid.Mruid.id_of_node m n)))
        (Dom.preorder root)
  in
  Cmd.v
    (Cmd.info "number" ~doc:"Number a document with the 2-level ruid.")
    Term.(const run $ input_arg $ area_arg $ show)

(* ------------------------------------------------------------------ *)
(* parent                                                              *)
(* ------------------------------------------------------------------ *)

let id_of_string s =
  (* "(g, l, true)" or "g,l,r" *)
  let clean =
    String.map (fun c -> if c = '(' || c = ')' then ' ' else c) s
  in
  match String.split_on_char ',' clean |> List.map String.trim with
  | [ g; l; r ] ->
    { R2.global = int_of_string g; local = int_of_string l;
      is_root = bool_of_string r }
  | _ -> failwith "expected an identifier of the form (global, local, bool)"

let parent_cmd =
  let id =
    Arg.(
      required
      & opt (some string) None
      & info [ "id" ] ~docv:"ID" ~doc:"Identifier, e.g. '(2, 7, false)'.")
  in
  let run path area id_str =
    let root = load path in
    let r2 = R2.number ~max_area_size:area root in
    let id = id_of_string id_str in
    Printf.printf "rancestor chain of %s:\n" (R2.id_to_string id);
    List.iter
      (fun a ->
        let tag =
          match R2.node_of_id r2 a with
          | Some n -> Format.asprintf "%a" Dom.pp_kind n
          | None -> "(no such node)"
        in
        Printf.printf "  %-18s %s\n" (R2.id_to_string a) tag)
      (R2.rancestors r2 id)
  in
  Cmd.v
    (Cmd.info "parent"
       ~doc:"Derive the ancestor identifiers of a node from kappa and K alone.")
    Term.(const run $ input_arg $ area_arg $ id)

(* ------------------------------------------------------------------ *)
(* query                                                               *)
(* ------------------------------------------------------------------ *)

let query_cmd =
  let expr =
    Arg.(
      required & pos 1 (some string) None
      & info [] ~docv:"XPATH" ~doc:"XPath location path.")
  in
  let engine =
    Arg.(
      value
      & opt (enum [ ("naive", `Naive); ("ruid", `Ruid) ]) `Ruid
      & info [ "engine" ] ~docv:"ENGINE" ~doc:"$(b,naive) or $(b,ruid).")
  in
  let strategy =
    Arg.(
      value
      & opt
          (enum
             [ ("auto", Rxpath.Engine_ruid.Auto);
               ("range", Rxpath.Engine_ruid.Range);
               ("arith", Rxpath.Engine_ruid.Arith);
               ("walk", Rxpath.Engine_ruid.Walk) ])
          Rxpath.Engine_ruid.Auto
      & info [ "strategy" ] ~docv:"STRATEGY"
          ~doc:
            "Name-test strategy of the ruid engine: $(b,auto) (cost model), \
             $(b,range) (binary search over posting arrays), $(b,arith) \
             (per-candidate identifier arithmetic) or $(b,walk) (generate \
             the axis, test the tag).")
  in
  let run path area expr engine strategy =
    let doc = Rxml.Parser.parse_file path in
    let eng =
      match engine with
      | `Naive -> Rxpath.Engine_naive.create doc
      | `Ruid ->
        Rxpath.Engine_ruid.create ~strategy (R2.number ~max_area_size:area doc)
    in
    let results = Rxpath.Eval.query eng expr in
    Printf.printf "%d result(s)\n" (List.length results);
    List.iteri
      (fun i n ->
        if i < 25 then begin
          let text = Dom.text_content n in
          let text =
            if String.length text > 60 then String.sub text 0 57 ^ "..." else text
          in
          Printf.printf "  %-20s %s\n"
            (Format.asprintf "%a" Dom.pp_kind n)
            text
        end)
      results
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Evaluate an XPath expression over a document.")
    Term.(const run $ input_arg $ area_arg $ expr $ engine $ strategy)

(* ------------------------------------------------------------------ *)
(* explain                                                             *)
(* ------------------------------------------------------------------ *)

let explain_cmd =
  let expr =
    Arg.(
      required & pos 1 (some string) None
      & info [] ~docv:"XPATH" ~doc:"XPath location path (unions allowed).")
  in
  let run path area expr =
    let doc = Rxml.Parser.parse_file path in
    let planner = Rxpath.Planner.create (R2.number ~max_area_size:area doc) in
    match Rxpath.Planner.explain planner expr with
    | text -> print_string text
    | exception Rxpath.Xparser.Syntax_error msg ->
      prerr_endline ("ruidtool explain: bad XPath: " ^ msg);
      exit 2
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Show the query plan the cost-based planner picks for an XPath \
          expression — chosen strategy (chain structural join, twig \
          semijoin, DataGuide prune, or engine fallback), plan vs. engine \
          cost estimates, and a per-operator table of estimated vs. actual \
          cardinalities with timings (the query is executed once, \
          uncached, to measure them).")
    Term.(const run $ input_arg $ area_arg $ expr)

(* ------------------------------------------------------------------ *)
(* update-sim                                                          *)
(* ------------------------------------------------------------------ *)

let update_sim_cmd =
  let ops =
    Arg.(value & opt int 100 & info [ "ops" ] ~docv:"N" ~doc:"Number of edits.")
  in
  let run path ops seed =
    let base = load path in
    let script = Rworkload.Updates.script ~seed ~ops base in
    Printf.printf "replaying %d edits on %d nodes\n\n" ops (Dom.size base);
    Printf.printf "%-12s %16s %10s\n" "scheme" "ids rewritten" "worst op";
    List.iter
      (fun (module S : Ruid.Scheme.S) ->
        let tree = Dom.clone base in
        let t = S.build tree in
        let total = ref 0 and worst = ref 0 in
        List.iter
          (fun op ->
            let c =
              Rworkload.Updates.apply tree
                ~insert:(fun ~parent ~pos node -> S.insert t ~parent ~pos node)
                ~delete:(fun n -> S.delete t n)
                op
            in
            total := !total + c;
            if c > !worst then worst := c)
          script;
        Printf.printf "%-12s %16d %10d\n" S.name !total !worst)
      [
        (module Ruid.Scheme_uid); (module Ruid.Scheme_ruid2);
        (module Ruid.Scheme_multilevel); (module Baselines.Prepost);
        (module Baselines.Interval); (module Baselines.Dewey);
      ]
  in
  Cmd.v
    (Cmd.info "update-sim"
       ~doc:"Replay a random edit script against every numbering scheme.")
    Term.(const run $ input_arg $ ops $ seed_arg)

(* ------------------------------------------------------------------ *)
(* reconstruct                                                         *)
(* ------------------------------------------------------------------ *)

let reconstruct_cmd =
  let expr =
    Arg.(
      required & pos 1 (some string) None
      & info [] ~docv:"XPATH" ~doc:"Selects the fragment's elements.")
  in
  let run path area expr =
    let doc = Rxml.Parser.parse_file path in
    let r2 = R2.number ~max_area_size:area doc in
    let eng = Rxpath.Engine_ruid.create r2 in
    let hits = Rxpath.Eval.query eng expr in
    Printf.printf "<!-- %d element(s) matched; fragment below -->\n"
      (List.length hits);
    let fragment = Ruid.Reconstruct.fragment_nodes r2 hits in
    print_endline (Rxml.Serializer.to_string ~indent:2 fragment)
  in
  Cmd.v
    (Cmd.info "reconstruct"
       ~doc:
         "Reconstruct the document fragment spanned by a query's results \
          (Section 3.3).")
    Term.(const run $ input_arg $ area_arg $ expr)

(* ------------------------------------------------------------------ *)
(* save / load                                                         *)
(* ------------------------------------------------------------------ *)

let sidecar_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "sidecar" ] ~docv:"FILE" ~doc:"Binary numbering sidecar path.")

let save_cmd =
  let out =
    Arg.(
      required & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output XML path.")
  in
  let run path area out sidecar =
    let doc = Rxml.Parser.parse_file ~keep_whitespace:true path in
    let r2 = R2.number ~max_area_size:area doc in
    Ruid.Persist.save r2 ~xml:out ~sidecar;
    Printf.printf "saved %d identifiers (%d areas, kappa %d) to %s + %s\n"
      (List.length (R2.all_nodes r2))
      (R2.area_count r2) (R2.kappa r2) out sidecar
  in
  Cmd.v
    (Cmd.info "save" ~doc:"Number a document and persist XML + numbering sidecar.")
    Term.(const run $ input_arg $ area_arg $ out $ sidecar_arg)

let load_cmd =
  let run path sidecar =
    let _doc, r2 = Ruid.Persist.load ~xml:path ~sidecar () in
    R2.check_consistency r2;
    Printf.printf
      "restored %d identifiers (%d areas, kappa %d); consistency verified\n"
      (List.length (R2.all_nodes r2))
      (R2.area_count r2) (R2.kappa r2);
    Format.printf "K table:@.%a@." Ruid.Ktable.pp (R2.ktable r2)
  in
  Cmd.v
    (Cmd.info "load" ~doc:"Restore a persisted numbering and verify it.")
    Term.(const run $ input_arg $ sidecar_arg)

(* ------------------------------------------------------------------ *)
(* wal-record / wal-replay / fsck / crash-test                         *)
(* ------------------------------------------------------------------ *)

module Wal = Rstorage.Wal

let wal_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "wal" ] ~docv:"FILE" ~doc:"Append-only update journal path.")

let wal_record_cmd =
  let insert =
    Arg.(
      value
      & opt (some (t3 ~sep:',' int int string)) None
      & info [ "insert" ] ~docv:"PARENT,POS,TAG"
          ~doc:
            "Insert a fresh $(b,<TAG>) element as the POS-th child of the \
             node at preorder rank PARENT.")
  in
  let delete =
    Arg.(
      value
      & opt (some int) None
      & info [ "delete" ] ~docv:"RANK"
          ~doc:"Delete the subtree rooted at preorder rank RANK.")
  in
  let run path sidecar wal insert delete =
    let op =
      match (insert, delete) with
      | Some (parent_rank, pos, tag), None -> Wal.Insert { parent_rank; pos; tag }
      | None, Some rank -> Wal.Delete { rank }
      | _ ->
        prerr_endline "exactly one of --insert or --delete is required";
        exit 2
    in
    (* Bring the numbering up to date with the journal, then commit the new
       operation through it. *)
    let recovery = Wal.replay ~xml:path ~sidecar ~wal () in
    let w = Wal.open_append wal in
    let r = Wal.log_update w recovery.Wal.r2 op in
    Format.printf "logged %a@." Wal.pp_record r
  in
  Cmd.v
    (Cmd.info "wal-record"
       ~doc:"Apply one structural update and journal it durably.")
    Term.(const run $ input_arg $ sidecar_arg $ wal_arg $ insert $ delete)

let wal_replay_cmd =
  let repair =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:"Also truncate a torn journal tail after a successful replay.")
  in
  let run path sidecar wal repair =
    let recovery = Wal.replay ~xml:path ~sidecar ~wal () in
    let r2 = recovery.Wal.r2 in
    Printf.printf "snapshot: %d identifiers (%d areas, kappa %d)\n"
      (List.length (R2.all_nodes r2))
      (R2.area_count r2) (R2.kappa r2);
    List.iter
      (fun r -> Format.printf "  %a@." Wal.pp_record r)
      recovery.Wal.replayed;
    let j = recovery.Wal.journal in
    (match j.Wal.checkpoint with
    | Some c -> Format.printf "replay started from %a@." Wal.pp_checkpoint c
    | None -> ());
    Printf.printf
      "replayed %d record(s) (%d batch frame(s)), %d of %d journal bytes \
       valid\n"
      (List.length recovery.Wal.replayed)
      j.Wal.batches j.Wal.valid_bytes j.Wal.total_bytes;
    (match j.Wal.damage with
    | None -> print_endline "journal intact; deep invariants hold"
    | Some why ->
      Printf.printf "torn tail: %s\n" why;
      if repair then begin
        let _ = Wal.repair wal in
        Printf.printf "truncated journal to %d byte(s)\n" j.Wal.valid_bytes
      end
      else print_endline "(re-run with --repair to truncate it)")
  in
  Cmd.v
    (Cmd.info "wal-replay"
       ~doc:"Recover a numbering from snapshot + journal and verify it.")
    Term.(const run $ input_arg $ sidecar_arg $ wal_arg $ repair)

let fsck_cmd =
  let wal_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "wal" ] ~docv:"FILE" ~doc:"Optional update journal to verify.")
  in
  let run path sidecar wal =
    let status = Wal.fsck ~xml:path ~sidecar ?wal () in
    Format.printf "%a@." Wal.pp_status status;
    exit (Wal.exit_code status)
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Verify a persisted numbering and its journal.  Exits 0 when \
          clean, 1 when a torn journal tail is recoverable, 2 when the \
          state is unrecoverable.")
    Term.(const run $ input_arg $ sidecar_arg $ wal_opt)

let crash_test_cmd =
  let ops =
    Arg.(value & opt int 64 & info [ "ops" ] ~docv:"N" ~doc:"Script length.")
  in
  let size =
    Arg.(
      value & opt int 200
      & info [ "size" ] ~docv:"N" ~doc:"Approximate document size in nodes.")
  in
  let runs =
    Arg.(
      value & opt int 1
      & info [ "runs" ] ~docv:"N"
          ~doc:"Consecutive seeds to test, starting at $(b,--seed).")
  in
  let batch =
    Arg.(
      value & opt int 1
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Group N records per commit frame (group commit); a tear can \
             then drop a whole batch atomically.  Default 1 (unbatched).")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some int) None
      & info [ "checkpoint" ] ~docv:"N"
          ~doc:
            "Rotate the journal to a checkpoint segment after N \
             operations; recovery then replays from the checkpoint, and \
             the simulated tear never reaches below the rotated segment \
             (rotation publishes with fsync + rename).")
  in
  let docs =
    Arg.(
      value & opt int 1
      & info [ "docs" ] ~docv:"N"
          ~doc:
            "Simulate N documents (>= 2) with interleaved journals and tear \
             exactly one: recovery must confine the damage to that document \
             while every other one replays every operation byte-identical \
             and fscks clean.  Default 1 (single-document experiment).")
  in
  let groups =
    Arg.(
      value & opt int 2
      & info [ "groups" ] ~docv:"N"
          ~doc:
            "Commit-group labels for the multi-document experiment (the \
             server's FNV-1a placement hash mod N); reported per run.  Only \
             meaningful with $(b,--docs) > 1.")
  in
  let dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Working directory (default: a fresh directory under TMPDIR).")
  in
  let run seed area ops size runs batch checkpoint docs groups dir =
    let dir =
      match dir with
      | Some d -> d
      | None ->
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "ruid-crash-%d" (Unix.getpid ()))
    in
    Rserver.Service.ensure_dir dir;
    let failures = ref 0 in
    for s = seed to seed + runs - 1 do
      if docs > 1 then begin
        match
          Rstorage.Crashsim.run_group ~dir ~seed:s ~docs ~groups ~ops ~size
            ~area ()
        with
        | o ->
          Format.printf "seed %d: ok — %a@." s
            Rstorage.Crashsim.pp_group_outcome o
        | exception Rstorage.Crashsim.Mismatch why ->
          incr failures;
          Printf.eprintf "seed %d: FAILED — %s\n%!" s why
      end
      else
        match
          Rstorage.Crashsim.run ~dir ~seed:s ~ops ~size ~area ~batch
            ?checkpoint_after:checkpoint ()
        with
        | o ->
          Format.printf "seed %d: ok — %a@." s Rstorage.Crashsim.pp_outcome o
        | exception Rstorage.Crashsim.Mismatch why ->
          incr failures;
          Printf.eprintf "seed %d: FAILED — %s\n%!" s why
    done;
    if !failures > 0 then begin
      Printf.eprintf "%d of %d run(s) failed\n" !failures runs;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "crash-test"
       ~doc:
         "Journal a random update script, tear the journal at an arbitrary \
          byte, recover, and verify the recovered numbering byte-for-byte \
          against an in-memory replica (untouched areas must be identical \
          to the snapshot).")
    Term.(
      const run $ seed_arg $ area_arg $ ops $ size $ runs $ batch $ checkpoint
      $ docs $ groups $ dir)

(* ------------------------------------------------------------------ *)
(* serve / client                                                      *)
(* ------------------------------------------------------------------ *)

module Service = Rserver.Service

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix domain socket path.")

(* ------------------------------------------------------------------ *)
(* Serving roles: run until SHUTDOWN, SIGTERM or SIGINT                *)
(* ------------------------------------------------------------------ *)

let stop_signals = [ Sys.sigint; Sys.sigterm ]

(* Called just before a role starts, so every thread and domain it spawns
   inherits the mask and no thread takes the stop signals asynchronously:
   an OCaml handler runs on whichever thread next polls for signals, and
   the role's [stop] joins most of the threads that could.
   {!serve_until_stopped} takes them with sigwait instead. *)
let block_stop_signals () =
  ignore (Thread.sigmask Unix.SIG_BLOCK stop_signals)

(* Park until the role stops, by SHUTDOWN or by a stop signal: one thread
   waits for SIGINT/SIGTERM and runs the role's graceful [stop], which
   removes the socket and lets [wait] return. *)
let serve_until_stopped ~stop ~wait =
  ignore
    (Thread.create
       (fun () ->
         ignore (Thread.wait_signal stop_signals);
         stop ())
       ());
  wait ()

let wal_segment_bytes_arg =
  Arg.(
    value & opt int 0
    & info [ "wal-segment-bytes" ] ~docv:"BYTES"
        ~doc:
          "Rotate a document's WAL once its segment reaches BYTES: cut a \
           checkpoint of the durable state and restart the journal from \
           it, bounding replay cost.  0 (the default) disables rotation.  \
           A replica rotates only once promoted.")

let serve_cmd =
  let files =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:
            "XML documents to host (served under their base name).  With no \
             files, one synthetic document per $(b,--gen-kind) is generated.")
  in
  let data_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "data-dir" ] ~docv:"DIR"
          ~doc:
            "Directory for persisted snapshots and WALs (default: a fresh \
             directory under TMPDIR).")
  in
  let workers =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"N" ~doc:"Worker pool size (>= 1).")
  in
  let max_queue =
    Arg.(
      value & opt int 0
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Admission queue bound (>= 1); requests beyond it are rejected \
             with BUSY instead of queuing without limit.  0 (the default) \
             auto-sizes the bound to 4 x max($(b,--workers), \
             $(b,--domains)) — four jobs of headroom per pool slot.")
  in
  let domains =
    Arg.(
      value & opt int 0
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Run QUERY/COUNT/CHECK on N parallel OCaml domains (multicore \
             read path) instead of the systhread worker pool.  0 (the \
             default) keeps reads on the systhread pool.")
  in
  let cache_mb =
    Arg.(
      value & opt int 0
      & info [ "cache-mb" ] ~docv:"MB"
          ~doc:
            "Cache read results in a snapshot-versioned LRU of about MB \
             mebibytes.  Entries are keyed by snapshot version, so cached \
             answers are never stale.  0 (the default) disables caching.")
  in
  let deadline_ms =
    Arg.(
      value & opt int 0
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Per-request deadline: work still queued after MS milliseconds \
             is answered BUSY rather than late.  0 disables.")
  in
  let commit_interval_us =
    Arg.(
      value & opt int 0
      & info [ "commit-interval-us" ] ~docv:"US"
          ~doc:
            "Extra microseconds (>= 0) a commit leader waits for more \
             UPDATEs before flushing a non-full batch.  0 (the default) \
             batches only what arrives naturally during the in-flight \
             fsync, so a lone writer never waits.")
  in
  let commit_batch =
    Arg.(
      value & opt int 64
      & info [ "commit-batch" ] ~docv:"N"
          ~doc:
            "Most UPDATE records coalesced into one WAL batch frame and \
             one snapshot publication (>= 1).  1 gives every record its \
             own fsync (unbatched).")
  in
  let commit_groups =
    Arg.(
      value & opt int 0
      & info [ "commit-groups" ] ~docv:"N"
          ~doc:
            "Independent commit pipelines (>= 1).  Documents hash to a \
             pipeline by name; each pipeline has its own write mutex, \
             commit queue, WAL family and fsync cadence, so unrelated \
             documents commit concurrently.  0 (the default) provisions \
             one pipeline per read domain (minimum 1).")
  in
  let plan_cache =
    Arg.(
      value & opt int 256
      & info [ "plan-cache" ] ~docv:"N"
          ~doc:
            "Compiled-plan cache capacity in plans (>= 0), shared by the \
             whole collection and keyed by DataGuide fingerprint + \
             canonical query text.  0 disables plan caching.")
  in
  let epoch =
    Arg.(
      value & opt int 1
      & info [ "epoch" ] ~docv:"N"
          ~doc:
            "Fencing epoch this primary serves under (>= 1).  Persisted to \
             DIR/EPOCH and stamped on every replication reply; replicas \
             refuse bytes from any epoch lower than the highest they have \
             seen, so a deposed primary restarted with its old epoch is \
             fenced out rather than merged.")
  in
  let max_depth =
    Arg.(
      value & opt int 10000
      & info [ "max-depth" ] ~docv:"N"
          ~doc:
            "Maximal XML element nesting accepted when parsing hosted \
             documents (>= 1); deeper input is rejected at startup.")
  in
  let max_area =
    Arg.(
      value & opt int 64
      & info [ "max-area-size" ] ~docv:"N"
          ~doc:"Maximal nodes enumerated per UID-local area (>= 2).")
  in
  let gen_kind =
    Arg.(
      value
      & opt (enum [ ("xmark", `Xmark); ("dblp", `Dblp); ("none", `None_) ])
          `Xmark
      & info [ "gen-kind" ] ~docv:"KIND"
          ~doc:
            "Synthetic document family when no FILEs are given: $(b,xmark), \
             $(b,dblp), or $(b,none) to boot an empty shard that is \
             populated at runtime (ADDDOC via $(b,ruidtool ingest), ADOPT \
             via the router's REBALANCE).")
  in
  let gen_size =
    Arg.(
      value & opt int 2000
      & info [ "gen-size" ] ~docv:"N"
          ~doc:"Approximate node count of a generated document.")
  in
  let fail msg =
    prerr_endline ("ruidtool serve: " ^ msg);
    exit 2
  in
  let run files data_dir workers max_queue domains cache_mb deadline_ms
      commit_interval_us commit_max_batch commit_groups wal_segment_bytes
      plan_cache epoch max_depth max_area gen_kind gen_size seed socket =
    if max_depth < 1 then fail "--max-depth must be >= 1";
    if gen_size < 1 then fail "--gen-size must be >= 1";
    let data_dir =
      match data_dir with
      | Some d -> d
      | None ->
        let d =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "ruid-serve-%d" (Unix.getpid ()))
        in
        Printf.printf "data-dir %s\n%!" d;
        d
    in
    let cfg =
      {
        Service.socket_path = socket;
        data_dir;
        workers;
        max_queue;
        deadline_ms;
        max_area_size = max_area;
        max_depth;
        domains;
        cache_mb;
        commit_interval_us;
        commit_max_batch;
        commit_groups;
        wal_segment_bytes;
        plan_cache;
        epoch;
        upstream = None;
        poll_ms = 500;
      }
    in
    (match Service.validate_config cfg with
    | Ok () -> ()
    | Error msg -> fail msg);
    let docs =
      match files with
      | [] when gen_kind = `None_ -> []
      | [] ->
        let name, root =
          match gen_kind with
          | `Xmark ->
            ( "xmark",
              Rworkload.Xmark.generate ~seed
                ~scale:(float_of_int gen_size /. 2000.) )
          | `Dblp ->
            ( "dblp",
              Rworkload.Dblp.generate ~seed
                ~publications:(max 1 (gen_size / 12)) )
          | `None_ -> assert false
        in
        Printf.printf "generated %s (%d nodes)\n%!" name (Dom.size root);
        [ (name, root) ]
      | files ->
        List.map
          (fun path ->
            let name = Filename.remove_extension (Filename.basename path) in
            match Rxml.Parser.parse_file ~max_depth path with
            | doc -> (name, doc)
            | exception Rxml.Parser.Parse_error e ->
              fail
                (Format.asprintf "%s does not parse: %a" path
                   Rxml.Parser.pp_error e))
          files
    in
    block_stop_signals ();
    let t =
      try Service.start cfg docs
      with Invalid_argument msg -> fail msg
    in
    List.iter
      (fun (name, root) ->
        Printf.printf "hosting %-12s %6d nodes\n%!" name (Dom.size root))
      docs;
    Printf.printf
      "listening on %s (workers %d, read domains %s, commit groups %d, \
       queue %d, cache %s, deadline %s, plan cache %d)\n%!"
      socket workers
      (if domains = 0 then "off" else string_of_int domains)
      (Service.resolved_commit_groups cfg)
      (Service.resolved_max_queue ~max_queue ~workers ~domains)
      (if cache_mb = 0 then "off" else string_of_int cache_mb ^ "MB")
      (if deadline_ms = 0 then "none" else string_of_int deadline_ms ^ "ms")
      plan_cache;
    serve_until_stopped
      ~stop:(fun () -> Service.stop t)
      ~wait:(fun () -> Service.wait t);
    print_endline "server stopped."
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Host documents behind the concurrent query/update service: \
          snapshot-isolated reads, WAL-serialized writes, bounded admission \
          queue.  Stop with SIGINT or the SHUTDOWN protocol verb.")
    Term.(
      const run $ files $ data_dir $ workers $ max_queue $ domains $ cache_mb
      $ deadline_ms $ commit_interval_us $ commit_batch $ commit_groups
      $ wal_segment_bytes_arg $ plan_cache $ epoch $ max_depth
      $ max_area $ gen_kind $ gen_size $ seed_arg $ socket_arg)

let replica_cmd =
  let primary =
    Arg.(
      required
      & opt (some string) None
      & info [ "primary" ] ~docv:"PATH"
          ~doc:
            "Unix socket of the upstream node to follow — a primary, or \
             another replica (replicas serve the replication verbs too, so \
             followers chain).")
  in
  let data_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "data-dir" ] ~docv:"DIR"
          ~doc:
            "Directory for the local mirror (default: a fresh directory \
             under TMPDIR).  Restarting over an existing mirror resumes \
             the stream from the durable byte offset instead of \
             re-bootstrapping.")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N" ~doc:"Read worker pool size (>= 1).")
  in
  let max_queue =
    Arg.(
      value & opt int 0
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Admission queue bound (>= 1); requests beyond it are rejected \
             with BUSY.  0 (the default) auto-sizes to 4 x $(b,--workers).")
  in
  let poll_ms =
    Arg.(
      value & opt int 500
      & info [ "poll-ms" ] ~docv:"MS"
          ~doc:
            "Long-poll timeout of each REPL WAIT round against the \
             upstream (>= 1).  Smaller values tighten replication lag at \
             the cost of more round trips when idle.")
  in
  let plan_cache =
    Arg.(
      value & opt int 256
      & info [ "plan-cache" ] ~docv:"N"
          ~doc:"Compiled-plan cache capacity in plans (>= 0).")
  in
  let fail msg =
    prerr_endline ("ruidtool replica: " ^ msg);
    exit 2
  in
  let run socket primary data_dir workers max_queue poll_ms plan_cache
      wal_segment_bytes =
    let data_dir =
      match data_dir with
      | Some d -> d
      | None ->
        let d =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "ruid-replica-%d" (Unix.getpid ()))
        in
        Printf.printf "data-dir %s\n%!" d;
        d
    in
    let cfg =
      {
        (Service.default_config ~socket_path:socket ~data_dir ()) with
        workers;
        max_queue;
        plan_cache;
        wal_segment_bytes;
        upstream = Some primary;
        poll_ms;
      }
    in
    (match Service.validate_config cfg with
    | Ok () -> ()
    | Error msg -> fail msg);
    block_stop_signals ();
    let t =
      try Service.start cfg [] with
      | Service.Fenced { seen; got } ->
        prerr_endline
          (Printf.sprintf
             "ruidtool replica: upstream %s is fenced out: it serves epoch \
              %d but this data directory has followed epoch %d — following \
              it would merge a deposed primary's writes"
             primary got seen);
        exit 4
      | Invalid_argument msg | Failure msg -> fail msg
      | Unix.Unix_error (e, fn, arg) ->
        fail
          (Printf.sprintf "cannot reach upstream %s: %s (%s %s)" primary
             (Unix.error_message e) fn arg)
    in
    let s = Service.snapshot t in
    Printf.printf
      "following %s at epoch %d, serving on %s (v=%d, workers %d, queue \
       %d)\n%!"
      primary (Service.epoch t) socket s.Rserver.Snapshot.version workers
      (Service.resolved_max_queue ~max_queue ~workers ~domains:0);
    serve_until_stopped
      ~stop:(fun () -> Service.stop t)
      ~wait:(fun () -> Service.wait t);
    print_endline "replica stopped."
  in
  Cmd.v
    (Cmd.info "replica"
       ~doc:
         "Follow a running server as a read replica: mirror its WAL stream \
          byte for byte, serve snapshot-isolated (possibly stale) reads, \
          and accept PROMOTE to fail over, after which the node is a full \
          primary.  Exit status 4 means the upstream is behind this \
          mirror's fencing epoch.")
    Term.(
      const run $ socket_arg $ primary $ data_dir $ workers $ max_queue
      $ poll_ms $ plan_cache $ wal_segment_bytes_arg)

let client_cmd =
  let words =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"WORD"
          ~doc:
            "Request words, e.g. $(b,QUERY //item) or $(b,UPDATE lib INSERT \
             0 0 note).  With no words, requests are read line by line from \
             stdin (a scriptable session).")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry the connection (in both forms) up to N times on a \
             transient connect failure, and a one-shot request on a BUSY \
             reply, with exponential backoff and jitter.  0 (the default) \
             keeps the client strictly one-shot.")
  in
  let retry_budget_ms =
    Arg.(
      value
      & opt int Rserver.Client.default_retry_budget_ms
      & info [ "retry-budget-ms" ] ~docv:"MS"
          ~doc:"Total backoff sleeping allowed across all retries.")
  in
  let run socket retries budget_ms words =
    (* A router's scatter reply can be OK yet degraded — some shard was
       down and its contribution is missing, flagged by a partial= token.
       Scripts must be able to tell: distinct exit status. *)
    let is_partial body = Rserver.Client.kv body "partial" <> None in
    let print_reply resp =
      print_endline (Rserver.Protocol.response_to_string resp);
      match resp with
      | Rserver.Protocol.Ok_ body -> if is_partial body then exit 5
      | Rserver.Protocol.Busy _ -> exit 3
      | Rserver.Protocol.Err _ -> exit 1
    in
    (* A missing or refusing socket is an answer of its own, not a
       crash: scripts polling for a server that is not up yet test for
       it by status. *)
    let c =
      match Rserver.Client.connect_retry ~retries ~budget_ms socket with
      | c -> c
      | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "cannot connect to %s: %s\n%!" socket
          (Unix.error_message e);
        exit 6
    in
    Fun.protect ~finally:(fun () -> Rserver.Client.close c) @@ fun () ->
    match words with
    | [] ->
      let rec loop failed partial =
        match input_line stdin with
        | exception End_of_file ->
          if failed then exit 1 else if partial then exit 5
        | "" -> loop failed partial
        | line ->
          let resp = Rserver.Client.request_raw c line in
          print_endline (Rserver.Protocol.response_to_string resp);
          loop
            (failed || match resp with Rserver.Protocol.Err _ -> true | _ -> false)
            (partial
            || match resp with
               | Rserver.Protocol.Ok_ body -> is_partial body
               | _ -> false)
      in
      loop false false
    | words ->
      print_reply
        (Rserver.Client.request_raw_retry ~retries ~budget_ms:budget_ms c
           (String.concat " " words))
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send requests to a running server.  Exit status: 0 on OK, 1 on \
          ERR, 3 on BUSY, 5 on an OK reply flagged $(b,partial=) (a \
          degraded router scatter: some shard did not contribute), 6 when \
          nothing accepts connections at the socket (missing or refusing, \
          once any retries are spent; the reason goes to stderr).")
    Term.(const run $ socket_arg $ retries $ retry_budget_ms $ words)

(* ------------------------------------------------------------------ *)
(* router / ingest                                                     *)
(* ------------------------------------------------------------------ *)

module Router = Rserver.Router
module Shard_map = Rserver.Shard_map

let shard_sockets_arg =
  Arg.(
    value & opt_all string []
    & info [ "shard" ] ~docv:"PATH"
        ~doc:
          "Unix socket of one shard service; repeat in shard order.  The \
           order is the placement contract — every router and ingest run \
           over the same collection must list the shards identically.")

let router_cmd =
  let fanout =
    Arg.(
      value & opt int 0
      & info [ "fanout" ] ~docv:"N"
        ~doc:
          "Concurrent shard calls per scatter-gather query (>= 0).  0 \
           (the default) fans out to every shard at once.")
  in
  let shard_deadline_ms =
    Arg.(
      value & opt int 2000
      & info [ "shard-deadline-ms" ] ~docv:"MS"
        ~doc:
          "Per-shard call deadline.  A shard that misses it is marked \
           down and its answer excluded (the scatter reply is flagged \
           $(b,partial=)); the connection is rebuilt with backoff on the \
           next request.  0 waits forever.")
  in
  let connect_retries =
    Arg.(
      value & opt int 3
      & info [ "connect-retries" ] ~docv:"N"
        ~doc:"Reconnect attempts (with backoff) to a shard thought alive.")
  in
  let fail msg =
    prerr_endline ("ruidtool router: " ^ msg);
    exit 2
  in
  let run socket shards fanout shard_deadline_ms connect_retries =
    let cfg =
      {
        Router.socket_path = socket;
        shard_sockets = Array.of_list shards;
        fanout;
        shard_deadline_ms;
        connect_retries;
      }
    in
    (match Router.validate_config cfg with
    | Ok () -> ()
    | Error msg -> fail msg);
    block_stop_signals ();
    let t = try Router.start cfg with Invalid_argument msg -> fail msg in
    Printf.printf
      "routing %d shard(s) on %s (fanout %s, shard deadline %s)\n%!"
      (List.length shards) socket
      (if fanout = 0 then "all" else string_of_int fanout)
      (if shard_deadline_ms = 0 then "none"
       else string_of_int shard_deadline_ms ^ "ms");
    List.iteri (fun i s -> Printf.printf "  shard %d: %s\n%!" i s) shards;
    serve_until_stopped
      ~stop:(fun () -> Router.stop t)
      ~wait:(fun () -> Router.wait t);
    print_endline "router stopped."
  in
  Cmd.v
    (Cmd.info "router"
       ~doc:
         "Front a set of shard services with one socket: single-document \
          verbs forward to the owning shard, collection-wide queries \
          scatter-gather with bounded fan-out and per-shard deadlines, \
          REBALANCE moves a document between shards online.  A dead shard \
          degrades its answers to $(b,partial=) instead of failing them.")
    Term.(
      const run $ socket_arg $ shard_sockets_arg $ fanout $ shard_deadline_ms
      $ connect_retries)

let ingest_cmd =
  let dir =
    Arg.(
      required & pos 0 (some dir) None
      & info [] ~docv:"DIR"
          ~doc:"Directory of $(b,*.xml) files; each is hosted under its \
                base name.")
  in
  let router =
    Arg.(
      value & opt (some string) None
      & info [ "router" ] ~docv:"PATH"
          ~doc:
            "Ship every document through the router at PATH instead of \
             directly to the shards.")
  in
  let parallel =
    Arg.(
      value & opt int 4
      & info [ "parallel"; "jobs" ] ~docv:"N"
          ~doc:
            "Concurrent worker connections (>= 1): N connections to the \
             router with $(b,--router), N connections $(i,per shard) in \
             direct mode (each shard's files dealt round-robin over its \
             workers).")
  in
  let fail msg =
    prerr_endline ("ruidtool ingest: " ^ msg);
    exit 2
  in
  let run dir shards router parallel =
    if parallel < 1 then fail "--parallel must be >= 1";
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".xml")
      |> List.sort String.compare
    in
    if files = [] then fail (Printf.sprintf "no *.xml files under %s" dir);
    (* Work buckets, one per worker connection: in direct mode each shard
       gets exactly the files the placement hash assigns it (the same FNV
       the router computes, so a later query routes straight to the copy),
       spread round-robin over its [parallel] workers; in router mode
       files are dealt round-robin over the connections and the router
       places them. *)
    let buckets, connect =
      match (shards, router) with
      | [], Some r ->
        let buckets = Array.make parallel [] in
        List.iteri
          (fun i f -> buckets.(i mod parallel) <- f :: buckets.(i mod parallel))
          files;
        (buckets, fun _ -> r)
      | (_ :: _ as shards), None ->
        let sockets = Array.of_list shards in
        let n = Array.length sockets in
        let buckets = Array.make (n * parallel) [] in
        let rr = Array.make n 0 in
        List.iter
          (fun f ->
            let name = Filename.remove_extension f in
            let s = Shard_map.hash ~shards:n name in
            let slot = (s * parallel) + (rr.(s) mod parallel) in
            rr.(s) <- rr.(s) + 1;
            buckets.(slot) <- f :: buckets.(slot))
          files;
        (buckets, fun i -> sockets.(i / parallel))
      | [], None -> fail "one of --shard ... or --router is required"
      | _ :: _, Some _ -> fail "--shard and --router are mutually exclusive"
    in
    let mu = Mutex.create () in
    let docs = ref 0 and bytes = ref 0 and nodes = ref 0 in
    let failures = ref [] in
    let record f err =
      Mutex.lock mu;
      (match err with
      | None -> ()
      | Some msg -> failures := (f, msg) :: !failures);
      Mutex.unlock mu
    in
    let t0 = Unix.gettimeofday () in
    let worker i =
      match buckets.(i) with
      | [] -> ()
      | bucket ->
        let c = Rserver.Client.connect_retry ~retries:3 (connect i) in
        Fun.protect ~finally:(fun () -> Rserver.Client.close c) @@ fun () ->
        List.iter
          (fun f ->
            let name = Filename.remove_extension f in
            let path = Filename.concat dir f in
            (* One chunk in memory per worker, never the document (let
               alone the corpus): the file ships straight from disk — a
               single ADDDOC frame when it fits, an ADDCHUNK sequence
               otherwise — and the shard parses it exactly once, in the
               same streaming pass that numbers it.  Malformed input
               comes back as the shard's ERR. *)
            let size =
              try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0
            in
            match Rserver.Client.add_doc_file ~retries:3 c ~doc:name path with
            | Rserver.Protocol.Ok_ body ->
              Mutex.lock mu;
              incr docs;
              bytes := !bytes + size;
              (match Rserver.Client.kv_int body "nodes" with
              | Some n -> nodes := !nodes + n
              | None -> ());
              Mutex.unlock mu
            | Rserver.Protocol.Err msg -> record f (Some msg)
            | Rserver.Protocol.Busy why -> record f (Some ("busy: " ^ why))
            | exception Sys_error msg -> record f (Some msg))
          (List.rev bucket)
    in
    let threads =
      Array.to_list (Array.mapi (fun i _ -> Thread.create worker i) buckets)
    in
    List.iter Thread.join threads;
    let dt = Unix.gettimeofday () -. t0 in
    Printf.printf
      "ingested %d/%d document(s), %d nodes, %.1f MB in %.2fs — %.0f \
       docs/s, %.1f MB/s\n"
      !docs (List.length files) !nodes
      (float_of_int !bytes /. 1048576.)
      dt
      (float_of_int !docs /. dt)
      (float_of_int !bytes /. 1048576. /. dt);
    match !failures with
    | [] -> ()
    | fs ->
      List.iter
        (fun (f, msg) -> Printf.eprintf "  %s: %s\n" f msg)
        (List.rev fs);
      Printf.eprintf "%d document(s) failed\n" (List.length fs);
      exit 1
  in
  Cmd.v
    (Cmd.info "ingest"
       ~doc:
         "Bulk-load a directory of XML files into a sharded collection: \
          each document is placed by the shared FNV hash (or by the router \
          with $(b,--router)) and streamed from disk — one ADDDOC frame \
          when it fits, a chunked ADDCHUNK sequence otherwise.  The shard \
          parses each document exactly once, in the same pass that numbers \
          it; client memory is bounded by one frame per worker, not by \
          document or corpus size.")
    Term.(const run $ dir $ shard_sockets_arg $ router $ parallel)

(* ------------------------------------------------------------------ *)
(* guide                                                               *)
(* ------------------------------------------------------------------ *)

let guide_cmd =
  let run path =
    let root = load path in
    let g = Rsummary.Dataguide.build root in
    Printf.printf "%d document elements, %d distinct label paths\n"
      (Rsummary.Dataguide.document_nodes g)
      (Rsummary.Dataguide.guide_nodes g);
    Format.printf "%a@." Rsummary.Dataguide.pp g
  in
  Cmd.v
    (Cmd.info "guide" ~doc:"Print the document's DataGuide (label-path summary).")
    Term.(const run $ input_arg)

let () =
  let doc = "structural numbering schemes for XML (EDBT 2002 reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "ruidtool" ~doc)
          [ generate_cmd; stats_cmd; number_cmd; parent_cmd; query_cmd;
            explain_cmd; update_sim_cmd; reconstruct_cmd;
            save_cmd; load_cmd;
            wal_record_cmd; wal_replay_cmd; fsck_cmd; crash_test_cmd;
            guide_cmd; serve_cmd; replica_cmd; client_cmd; router_cmd;
            ingest_cmd ]))
