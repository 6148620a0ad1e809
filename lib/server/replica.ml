module R2 = Ruid.Ruid2
module Wal = Rstorage.Wal
module Fault = Rstorage.Fault

exception Fenced of { seen : int; got : int }

type config = {
  socket_path : string;
  data_dir : string;
  primary : string;
  workers : int;
  max_queue : int;
  poll_ms : int;
  plan_cache : int;
}

let default_config ~socket_path ~data_dir ~primary () =
  { socket_path; data_dir; primary; workers = 2; max_queue = 0; poll_ms = 500;
    plan_cache = 256 }

let validate_config c =
  if c.workers < 1 then Error "workers must be >= 1"
  else if c.max_queue < 0 then Error "max-queue must be >= 0 (0 = 4 x workers)"
  else if c.poll_ms < 1 then Error "poll-ms must be >= 1"
  else if c.plan_cache < 0 then Error "plan-cache must be >= 0"
  else if c.primary = "" then Error "primary socket path must not be empty"
  else Listener.check_socket_path c.socket_path

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

(* One mirrored document.  The invariant everything rests on: the local
   journal file holds {e only} checksum-verified complete frames (plus the
   segment header), every one of which has been folded into [r2] and
   fsynced — so the data directory is at all times indistinguishable from
   a primary's, [ruidtool fsck] passes, and a restart recovers through the
   ordinary {!Wal.replay} path. *)
type doc = {
  name : string;
  xml_path : string;
  sidecar_path : string;
  wal_path : string;
  mutable r2 : R2.t;
      (** local master numbering, fed by the stream: after each
          publication an O(1) clone of the published version, sharing its
          tables and tree *)
  mutable applied_seq : int;  (** last record folded into [r2] *)
  mutable gen : int;  (** generation of the local active segment *)
  mutable local_size : int;  (** bytes of the local journal (all validated) *)
  mutable tail : string;  (** fetched bytes not yet forming complete frames *)
  mutable writer : Wal.writer option;  (** [Some] once promoted *)
}

type t = {
  cfg : config;
  chaos : Fault.plan option;
  docs : doc array;
  current : Snapshot.t Atomic.t;
  write_mu : Mutex.t;
      (** serializes stream application while following, and the write
          path once promoted *)
  files_mu : Mutex.t;
      (** makes each mirrored document's ([gen], [local_size], file bytes)
          atomic between the REPL verbs served to chained followers and a
          generation install, which replaces the active segment, moves
          [gen] and trims the family as separate steps — the guarantee the
          primary gets from [rotate_mu].  Never held across a fetch. *)
  epoch : int Atomic.t;  (** highest fencing epoch ever seen (persisted) *)
  mutable role : [ `Following | `Promoted ];
  reconnects : int Atomic.t;
  refused_epoch : int Atomic.t;
  repl_requests : int Atomic.t;
  repl_bytes : int Atomic.t;
  lag_versions : int Atomic.t;
  lag_bytes : int Atomic.t;
  sched : Pool.t;
  metrics : Metrics.t;
  listener : Listener.t;
  mutable pull_thread : Thread.t option;
  pull_stop : bool Atomic.t;  (** set by promotion *)
  wake : Unix.file_descr * Unix.file_descr;
      (** pipe the puller's back-off parks on; promotion and stop write
          to it so neither waits the back-off out *)
}

let metrics t = t.metrics
let snapshot t = Atomic.get t.current
let config t = t.cfg
let epoch t = Atomic.get t.epoch
let role t = t.role

let doc_files t name =
  Array.fold_left
    (fun acc d ->
      if d.name = name then Some (d.xml_path, d.sidecar_path, d.wal_path)
      else acc)
    None t.docs

let find_doc t name =
  let r = ref None in
  Array.iteri (fun i d -> if d.name = name then r := Some (i, d)) t.docs;
  !r

(* The version contract with the primary: the global stamp starts at 1
   (the startup snapshot) and each update advances it by exactly 1, so a
   caught-up follower computes the same [v=] the primary serves — replies
   are byte-identical when the two are quiesced at the same point. *)
let local_version t =
  1 + Array.fold_left (fun acc d -> acc + d.applied_seq) 0 t.docs

let pull_stopped t =
  Atomic.get t.pull_stop || not (Listener.running t.listener)

let with_mutex mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* ------------------------------------------------------------------ *)
(* Epoch fencing                                                       *)
(* ------------------------------------------------------------------ *)

(* Every reply from upstream carries its serving epoch.  Higher: a
   legitimate promotion happened somewhere — raise (and persist) the
   fence.  Lower: a deposed primary is still talking — refuse the bytes,
   count the refusal, and drop the connection.  The fence only ever
   rises. *)
let check_epoch t got =
  let rec go () =
    let seen = Atomic.get t.epoch in
    if got < seen then begin
      Atomic.incr t.refused_epoch;
      raise (Fenced { seen; got })
    end
    else if got > seen then
      if Atomic.compare_and_set t.epoch seen got then
        Replication.store_epoch t.cfg.data_dir got
      else go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Fetching from upstream                                              *)
(* ------------------------------------------------------------------ *)

exception Stream_torn  (** injected by the chaos plan: connection died *)

(* Upstream no longer hosts a document it listed in the round's STATE: a
   DROPDOC landed in between.  Not a stream fault — a pull round skips the
   document and keeps the connection, as for a document STATE omits; a
   bootstrap fails as on any other refusal. *)
exception Dropped_upstream of string

let unknown_document m =
  let p = "unknown document" in
  String.length m >= String.length p && String.sub m 0 (String.length p) = p

let repl_failure what = function
  | Protocol.Ok_ body -> (
    match Replication.decode_chunk body with
    | Ok c -> c
    | Error why -> failwith (Printf.sprintf "%s: bad reply: %s" what why))
  | Protocol.Err m when unknown_document m ->
    raise (Dropped_upstream (Printf.sprintf "%s: upstream ERR %s" what m))
  | Protocol.Err m -> failwith (Printf.sprintf "%s: upstream ERR %s" what m)
  | Protocol.Busy m -> failwith (Printf.sprintf "%s: upstream BUSY %s" what m)

(* Upstream serves a newer generation than the one a fetch is for: that
   generation's files may be gone already (a rotation trims its family).
   The catch-up step restarts for the newer one on the same connection. *)
exception Rotated of int

(* With [?gen], the chunk must come from that generation: upstream makes
   each reply's (generation, bytes) atomic against its rotations. *)
let fetch_chunk t conn ?gen ~doc ~file ~offset () =
  let req =
    Protocol.Repl_file { doc; file; offset; limit = Replication.max_chunk }
  in
  let c =
    repl_failure (Protocol.request_to_string req) (Client.request conn req)
  in
  check_epoch t c.Replication.epoch;
  (match gen with
  | Some g when c.Replication.gen > g -> raise (Rotated c.Replication.gen)
  | Some g when c.Replication.gen < g ->
    failwith
      (Printf.sprintf "%s: upstream generation %d is behind %d"
         (Protocol.request_to_string req) c.Replication.gen g)
  | _ -> ());
  c

(* The file's bytes as of the first reply's [size] — later growth (an
   active segment under append) is left to the WAIT loop.  A missing file
   reads as empty. *)
let fetch_file t conn ?gen ~doc ~file () =
  let buf = Buffer.create 8192 in
  let rec go offset total =
    if offset >= total then Buffer.contents buf
    else begin
      let c = fetch_chunk t conn ?gen ~doc ~file ~offset () in
      if String.length c.Replication.data = 0 then Buffer.contents buf
      else begin
        Buffer.add_string buf c.Replication.data;
        go (offset + String.length c.Replication.data) total
      end
    end
  in
  let c0 = fetch_chunk t conn ?gen ~doc ~file ~offset:0 () in
  Buffer.add_string buf c0.Replication.data;
  go (String.length c0.Replication.data) c0.Replication.size

let store_atomic path s =
  Ruid.Persist.store_atomic Ruid.Vfs.real ~attempts:5 path
    (Bytes.of_string s)

let get_state t conn =
  match Client.request conn Protocol.Repl_state with
  | Protocol.Ok_ body -> (
    match Replication.decode_state body with
    | Ok st ->
      check_epoch t st.Replication.s_epoch;
      st
    | Error why -> failwith ("REPL STATE: bad reply: " ^ why))
  | Protocol.Err m -> failwith ("REPL STATE: upstream ERR " ^ m)
  | Protocol.Busy m -> failwith ("REPL STATE: upstream BUSY " ^ m)

(* ------------------------------------------------------------------ *)
(* Applying the stream                                                 *)
(* ------------------------------------------------------------------ *)

let append_local d data =
  let fd =
    Unix.openfile d.wal_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let b = Bytes.of_string data in
  let n = Unix.write fd b 0 (Bytes.length b) in
  if n <> Bytes.length b then failwith "short write to local journal";
  Unix.fsync fd

(* Fold decoded frames into the numbering, verifying what the primary's
   renumber records promised — sequence continuity, and that the local
   replay touched the same area and rewrote the same identifier count.
   Any disagreement means divergence and is fatal to the stream (the
   puller resyncs). *)
let apply_entries d entries =
  let ops = ref [] in
  List.iter
    (function
      | Wal.Ckpt c ->
        if c.Wal.base_seq <> d.applied_seq then
          failwith
            (Printf.sprintf
               "checkpoint frame of gen %d cut after seq %d, but %d applied \
                locally" c.Wal.gen c.Wal.base_seq d.applied_seq)
      | Wal.Records rl ->
        List.iter
          (fun r ->
            if r.Wal.seq <> d.applied_seq + 1 then
              failwith
                (Printf.sprintf "sequence break in stream: got %d after %d"
                   r.Wal.seq d.applied_seq);
            let area, changed = Wal.apply d.r2 r.Wal.op in
            if area <> r.Wal.area || changed <> r.Wal.changed then
              failwith
                (Printf.sprintf
                   "divergence at seq %d: local replay renumbered area %d \
                    (%d ids), primary recorded area %d (%d ids)" r.Wal.seq
                   area changed r.Wal.area r.Wal.changed);
            d.applied_seq <- d.applied_seq + 1;
            ops := r.Wal.op :: !ops)
          rl)
    entries;
  List.rev !ops

(* Install [next] and re-derive the writer copy from it: an O(1) clone
   sharing the published version, which holds every applied operation. *)
let install t idx d next =
  Atomic.set t.current next;
  d.r2 <- R2.clone next.Snapshot.docs.(idx).Snapshot.r2

(* Publish one snapshot covering [ops] on document [idx] — the same
   incremental {!Snapshot.advance} path the primary's group commit uses,
   with the sidecar re-capture as fallback, so the published numbering is
   bit-identical to the primary's at the same sequence point. *)
let publish t idx d ops =
  if ops <> [] then begin
    let version = local_version t in
    let prev = Atomic.get t.current in
    let next =
      match Snapshot.advance prev ~version [ (idx, ops, version) ] with
      | next, _areas -> next
      | exception _ ->
        Snapshot.replace_doc prev ~version ~doc_version:version
          ~doc_index:idx d.r2
    in
    install t idx d next
  end

let segment_header_ok s =
  String.length s >= Wal.header_length
  && (let magic = String.sub s 0 4 in
      magic = "RWAL" || magic = "RWAC")
  && s.[4] = '\x02'

(* Drain the complete-frame prefix of [d.tail]: append it to the local
   journal (fsynced), fold it into the numbering, publish.  A trailing
   torn frame just stays in [tail] until its continuation bytes arrive —
   torn-stream resumption in one place. *)
let drain t idx d =
  let pos = if d.local_size = 0 then Wal.header_length else 0 in
  if d.local_size = 0 && String.length d.tail >= Wal.header_length
     && not (segment_header_ok d.tail)
  then failwith "stream does not begin with a v2 journal header";
  if String.length d.tail > pos then begin
    let entries, consumed, corrupt =
      Wal.decode_stream (Bytes.of_string d.tail) ~pos
    in
    (match corrupt with
    | Some why -> failwith ("corrupt frame in stream: " ^ why)
    | None -> ());
    if consumed > 0 && (entries <> [] || d.local_size = 0) then begin
      append_local d (String.sub d.tail 0 consumed);
      d.tail <-
        String.sub d.tail consumed (String.length d.tail - consumed);
      d.local_size <- d.local_size + consumed;
      let ops = apply_entries d entries in
      publish t idx d ops
    end
  end

(* Chaos hook for the fault-injection tests: a plan may truncate a chunk
   at a random byte — the prefix is kept (exactly what a torn TCP stream
   delivers) and the connection is declared dead. *)
let chaos_data t d data =
  match t.chaos with
  | None -> data
  | Some plan -> (
    match Fault.torn_stream plan data with
    | None -> data
    | Some kept ->
      d.tail <- d.tail ^ kept;
      raise Stream_torn)

(* ------------------------------------------------------------------ *)
(* Generation install and rotation catch-up                            *)
(* ------------------------------------------------------------------ *)

(* One generation of an upstream document, fetched whole: the
   complete-frame prefix of its active segment and the frames in it, its
   checkpoint pair (from generation 1 on), and the archive of the segment
   it replaced when upstream holds one. *)
type generation = {
  number : int;
  segment : string;
  frames : Wal.entry list;
  pair : (string * string) option;
  archive : string option;
}

let fetch_generation t conn ~doc ~gen ~archive =
  let fetch file = fetch_file t conn ~gen ~doc ~file () in
  let fail fmt =
    Printf.ksprintf
      (fun m -> failwith (Printf.sprintf "%s gen %d: %s" doc gen m))
      fmt
  in
  let bytes = fetch Protocol.Active_wal in
  if not (segment_header_ok bytes) then fail "segment has no v2 header";
  let entries, consumed, corrupt =
    Wal.decode_stream (Bytes.of_string bytes) ~pos:Wal.header_length
  in
  Option.iter (fail "segment corrupt: %s") corrupt;
  (* The segment names its own generation (the checkpoint frame a rotated
     segment opens with), and the frame vouches for the pair's bytes. *)
  let named = match entries with Wal.Ckpt c :: _ -> Some c | _ -> None in
  let pair =
    match named with
    | None when gen = 0 -> None
    | Some c when c.Wal.gen = gen ->
      let x = fetch (Protocol.Ckpt_xml gen)
      and s = fetch (Protocol.Ckpt_sidecar gen) in
      if Ruid.Crc32.string x <> c.Wal.xml_crc
         || Ruid.Crc32.string s <> c.Wal.sidecar_crc
      then fail "checkpoint pair fails its checkpoint frame's checksums";
      Some (x, s)
    | _ -> fail "segment names another generation"
  in
  let archive =
    if archive && gen > 0 then
      match fetch (Protocol.Segment gen) with "" -> None | a -> Some a
    else None
  in
  { number = gen; segment = String.sub bytes 0 consumed; frames = entries;
    pair; archive }

(* Install a fetched generation under [wal_path] in the rotation's own
   order: the pair and the archive first, at names nothing served refers
   to yet; then, under [files_mu] with [commit] (which moves what is
   served), the active segment by rename — no instant with a torn or
   empty journal on disk — and the trim to the new generation. *)
let store_generation t ~wal_path g ~commit =
  Option.iter
    (fun (x, s) ->
      let cx, cs = Wal.checkpoint_files wal_path g.number in
      store_atomic cx x;
      store_atomic cs s)
    g.pair;
  Option.iter (store_atomic (Wal.segment_archive wal_path g.number)) g.archive;
  with_mutex t.files_mu (fun () ->
      store_atomic wal_path g.segment;
      commit ();
      Wal.trim wal_path ~gen:g.number)

(* The live generation, whichever it is by the time it is fetched. *)
let rec install_generation t conn ~doc ~wal_path ~gen ~commit =
  match fetch_generation t conn ~doc ~gen ~archive:true with
  | g -> store_generation t ~wal_path g ~commit:(fun () -> commit g)
  | exception Rotated newer ->
    install_generation t conn ~doc ~wal_path ~gen:newer ~commit

(* What the local files hold, by the ordinary recovery path: the
   numbering, the last applied sequence number, the generation and the
   journal's valid size. *)
let recover ~xml ~sidecar ~wal =
  let r = Wal.replay ~xml ~sidecar ~wal () in
  let j = r.Wal.journal in
  let base_seq, gen =
    match j.Wal.checkpoint with
    | Some c -> (c.Wal.base_seq, c.Wal.gen)
    | None -> (0, 0)
  in
  let applied_seq =
    match List.rev r.Wal.replayed with x :: _ -> x.Wal.seq | [] -> base_seq
  in
  (r.Wal.r2, applied_seq, gen, j.Wal.valid_bytes)

(* More than one generation behind, or nothing upstream to bridge with:
   install the live generation as bootstrap does and hand the recovered
   numbering to the snapshot without a copy. *)
let reinstall t conn idx d ~gen =
  install_generation t conn ~doc:d.name ~wal_path:d.wal_path ~gen
    ~commit:(fun g ->
      d.gen <- g.number;
      d.local_size <- String.length g.segment;
      d.tail <- "");
  let r2, applied_seq, _, _ =
    recover ~xml:d.xml_path ~sidecar:d.sidecar_path ~wal:d.wal_path
  in
  (* no new record: the published version already is this state *)
  if applied_seq <> d.applied_seq then begin
    d.applied_seq <- applied_seq;
    let version = local_version t in
    install t idx d
      (Snapshot.rehost (Atomic.get t.current) ~version ~doc_version:version
         ~doc_index:idx r2)
  end

(* Exactly one generation behind: [seg<gen>] is a byte-for-byte copy of
   the segment we mirror a prefix of.  Finish it from there, then take
   the generation's pair and the active prefix, and keep folding the
   stream into the numbering.  [false] when upstream holds no archive to
   bridge with (a follower that reinstalled, an adopted document). *)
let bridge t conn idx d ~gen =
  let archive =
    fetch_file t conn ~gen ~doc:d.name ~file:(Protocol.Segment gen) ()
  in
  if String.length archive < d.local_size then false
  else begin
    d.tail <-
      String.sub archive d.local_size (String.length archive - d.local_size);
    drain t idx d;
    if d.tail <> "" then failwith "archived segment ends in a torn frame";
    let g = fetch_generation t conn ~doc:d.name ~gen ~archive:false in
    store_generation t ~wal_path:d.wal_path { g with archive = Some archive }
      ~commit:(fun () ->
        d.gen <- gen;
        d.local_size <- String.length g.segment);
    publish t idx d (apply_entries d g.frames);
    true
  end

(* Upstream rotated past us.  The pairs of the generations in between are
   gone (a rotation keeps one), and walking them cost a copy of the
   document each: bridge one generation, reinstall past more.  A fetch
   that meets a newer generation restarts the step for it on the same
   connection — no reconnect, no back-off. *)
let rec catch_up t conn idx d ~gen =
  if gen > d.gen && not (pull_stopped t) then
    match
      if gen = d.gen + 1 && bridge t conn idx d ~gen then ()
      else reinstall t conn idx d ~gen
    with
    | () -> ()
    | exception Rotated newer -> catch_up t conn idx d ~gen:newer

(* ------------------------------------------------------------------ *)
(* The pull loop                                                       *)
(* ------------------------------------------------------------------ *)

(* One mirrored document's share of a pull round: catch up when upstream
   rotated past us, then long-poll the live tail. *)
let pull_doc t conn idx d (u : Replication.doc_state) =
  if u.gen > d.gen then
    with_mutex t.write_mu (fun () -> catch_up t conn idx d ~gen:u.gen);
  (* live tail: long-poll for growth of the active segment *)
  let offset = d.local_size + String.length d.tail in
  let req =
    Protocol.Repl_wait
      { doc = d.name; gen = d.gen; offset; timeout_ms = t.cfg.poll_ms }
  in
  let c = repl_failure "REPL WAIT" (Client.request conn req) in
  check_epoch t c.Replication.epoch;
  if c.Replication.gen = d.gen && String.length c.Replication.data > 0 then
    with_mutex t.write_mu (fun () ->
        let data = chaos_data t d c.Replication.data in
        d.tail <- d.tail ^ data;
        drain t idx d)
  else if c.Replication.gen > d.gen then
    with_mutex t.write_mu (fun () ->
        catch_up t conn idx d ~gen:c.Replication.gen)

let pull_round t conn =
  let st = get_state t conn in
  (* Lag gauges over the mirrored documents only: records and journal
     bytes upstream holds that this replica has not applied.  The
     upstream's version stamp also counts ADDDOC/DROPDOC and documents
     this replica does not mirror, so it is not compared. *)
  let lag_versions, lag_bytes =
    Array.fold_left
      (fun (versions, bytes) d ->
        match
          List.find_opt
            (fun (u : Replication.doc_state) -> u.name = d.name)
            st.Replication.s_docs
        with
        | None -> (versions, bytes)
        | Some u ->
          let unread =
            if u.gen = d.gen then
              max 0 (u.size - d.local_size - String.length d.tail)
            else u.size
          in
          (versions + max 0 (u.seq - d.applied_seq), bytes + unread))
      (0, 0) t.docs
  in
  Atomic.set t.lag_versions lag_versions;
  Atomic.set t.lag_bytes lag_bytes;
  Array.iteri
    (fun idx d ->
      match
        List.find_opt
          (fun (u : Replication.doc_state) -> u.name = d.name)
          st.Replication.s_docs
      with
      | None ->
        (* Dropped upstream.  Replicas mirror the document set fixed at
           bootstrap and do not follow membership changes: the last
           mirrored copy stays served, and the rest of the array is still
           polled. *)
        ()
      | Some _ when pull_stopped t -> ()
      | Some u -> (
        (* dropped between STATE and this document's turn: same case *)
        try pull_doc t conn idx d u with Dropped_upstream _ -> ()))
    t.docs

(* Bounded exponential backoff between reconnect attempts: 50 ms doubling
   to a 2 s cap, parked on the wake pipe so that promotion and stop end it
   at once. *)
let backoff_delay t attempt =
  let ms = min 2_000 (50 * (1 lsl min attempt 5)) in
  if not (pull_stopped t) then
    try ignore (Unix.select [ fst t.wake ] [] [] (float_of_int ms /. 1000.))
    with Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Called once the puller's stop condition holds.  The byte is never
   read: every later back-off returns at once, and the puller exits. *)
let wake_puller t =
  try ignore (Unix.single_write_substring (snd t.wake) "w" 0 1)
  with Unix.Unix_error _ -> ()

let puller t =
  let attempt = ref 0 in
  while not (pull_stopped t) do
    (match
       Client.with_connection t.cfg.primary @@ fun conn ->
       while not (pull_stopped t) do
         pull_round t conn;
         attempt := 0
       done
     with
    | () -> ()
    | exception _ when pull_stopped t -> ()
    | exception _ ->
      (* torn stream, upstream restart, fencing, divergence: drop the
         connection, back off, reconnect, resume from the durable local
         offset (plus any buffered tail) — the stream is idempotent by
         byte position. *)
      Atomic.incr t.reconnects;
      backoff_delay t !attempt;
      incr attempt);
    ()
  done

(* ------------------------------------------------------------------ *)
(* Bootstrap                                                           *)
(* ------------------------------------------------------------------ *)

(* Build one document's mirror: resume from intact local files when they
   exist (a restart), otherwise fetch the base pair and install the live
   generation — the same install a follower further behind than one
   rotation uses.  Either way the document finishes in the invariant
   state: local files a primary-shaped, fsck-clean mirror; [r2]/
   [applied_seq] the replay of exactly those bytes. *)
let bootstrap_doc t conn (u : Replication.doc_state) =
  let name = u.name in
  let base = Filename.concat t.cfg.data_dir name in
  let xml_path = base ^ ".xml" in
  let sidecar_path = base ^ ".ruid" in
  let wal_path = base ^ ".wal" in
  if not (Sys.file_exists xml_path && Sys.file_exists sidecar_path) then begin
    (* fresh mirror: base pair first *)
    store_atomic xml_path
      (fetch_file t conn ~doc:name ~file:Protocol.Base_xml ());
    store_atomic sidecar_path
      (fetch_file t conn ~doc:name ~file:Protocol.Base_sidecar ());
    install_generation t conn ~doc:name ~wal_path ~gen:u.gen ~commit:ignore
  end
  else
    (* restart: a kill between our append and fsync can leave a torn
       tail; drop it, then replay resumes from the durable prefix *)
    ignore (Wal.repair wal_path);
  let r2, applied_seq, gen, local_size =
    recover ~xml:xml_path ~sidecar:sidecar_path ~wal:wal_path
  in
  (* a kill inside an earlier install can leave older members behind *)
  Wal.trim wal_path ~gen;
  { name; xml_path; sidecar_path; wal_path; r2; applied_seq; gen; local_size;
    tail = ""; writer = None }

(* ------------------------------------------------------------------ *)
(* Serving                                                             *)
(* ------------------------------------------------------------------ *)

let repl_reply t chunk =
  Atomic.incr t.repl_requests;
  ignore
    (Atomic.fetch_and_add t.repl_bytes
       (String.length chunk.Replication.data));
  Protocol.Ok_ (Replication.encode_chunk chunk)

(* The replica serves the same [REPL *] verbs from its mirrored files, so
   replicas chain: a second follower can pull from the first, and after a
   promotion the chain keeps following the new primary seamlessly — the
   promoted journal continues at the same byte offsets. *)
let run_repl_state t =
  Atomic.incr t.repl_requests;
  let s_docs =
    with_mutex t.files_mu @@ fun () ->
    Array.to_list t.docs
    |> List.map (fun d ->
           { Replication.name = d.name; gen = d.gen; seq = d.applied_seq;
             size = d.local_size })
  in
  Protocol.Ok_
    (Replication.encode_state
       { Replication.s_epoch = Atomic.get t.epoch;
         s_version = local_version t; s_docs })

(* A chunk is bytes of the generation its reply names: [files_mu]
   excludes a generation install in between. *)
let run_repl_file t doc file offset limit =
  match find_doc t doc with
  | None -> Protocol.Err (Printf.sprintf "unknown document %S" doc)
  | Some (_, d) ->
    let path =
      Replication.resolve_path ~xml:d.xml_path ~sidecar:d.sidecar_path
        ~wal:d.wal_path file
    in
    with_mutex t.files_mu @@ fun () ->
    let limit =
      (* never serve past the validated prefix of the active journal *)
      match file with
      | Protocol.Active_wal -> min limit (max 0 (d.local_size - offset))
      | _ -> limit
    in
    let data, size = Replication.read_chunk path ~offset ~limit in
    let size =
      match file with Protocol.Active_wal -> d.local_size | _ -> size
    in
    repl_reply t
      { Replication.epoch = Atomic.get t.epoch; gen = d.gen; size; data }

let run_repl_wait t doc want_gen offset timeout_ms =
  match find_doc t doc with
  | None -> Protocol.Err (Printf.sprintf "unknown document %S" doc)
  | Some (_, d) ->
    let deadline =
      Unix.gettimeofday ()
      +. (float_of_int (min timeout_ms Replication.max_wait_ms) /. 1000.)
    in
    let rec loop () =
      let reply =
        with_mutex t.files_mu @@ fun () ->
        let chunk data =
          Some
            { Replication.epoch = Atomic.get t.epoch; gen = d.gen;
              size = d.local_size; data }
        in
        if d.gen <> want_gen then chunk ""
        else if d.local_size > offset then
          chunk
            (fst
               (Replication.read_chunk d.wal_path ~offset
                  ~limit:(min Replication.max_chunk (d.local_size - offset))))
        else if (not (Listener.running t.listener))
                || Unix.gettimeofday () > deadline then chunk ""
        else None
      in
      match reply with
      | Some c -> repl_reply t c
      | None ->
        Thread.delay 0.005;
        loop ()
    in
    loop ()

(* --- Promotion -----------------------------------------------------

   Stop following, bump the fence, accept writes.  Ordering matters: the
   puller is joined {e before} the epoch rises, so no frame from the old
   primary can interleave with locally accepted writes; the epoch is
   persisted before the first write is accepted, so a crash right after
   promotion still restarts above the old primary's fence. *)

let promote t =
  Mutex.lock t.write_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.write_mu)
  @@ fun () ->
  match t.role with
  | `Promoted ->
    Protocol.Ok_
      (Printf.sprintf "epoch=%d role=promoted already=1" (Atomic.get t.epoch))
  | `Following ->
    Atomic.set t.pull_stop true;
    wake_puller t;
    (* the puller may hold write_mu transitively? no: it takes write_mu
       only inside pull_round, and we hold it — but the puller blocks on
       it at most one drain long, then observes pull_stop. *)
    Mutex.unlock t.write_mu;
    (match t.pull_thread with Some th -> Thread.join th | None -> ());
    Mutex.lock t.write_mu;
    let e = Atomic.get t.epoch + 1 in
    Atomic.set t.epoch e;
    Replication.store_epoch t.cfg.data_dir e;
    Array.iter
      (fun d ->
        (* buffered torn bytes die with the old primary *)
        d.tail <- "";
        d.writer <- Some (Wal.open_append d.wal_path))
      t.docs;
    t.pull_thread <- None;
    t.role <- `Promoted;
    Protocol.Ok_ (Printf.sprintf "epoch=%d role=promoted v=%d" e
                    (local_version t))

let run_update t doc op =
  Mutex.lock t.write_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.write_mu)
  @@ fun () ->
  match t.role with
  | `Following ->
    Protocol.Err
      "read-only replica: writes go to the primary (PROMOTE to fail over)"
  | `Promoted -> (
    match find_doc t doc with
    | None -> Protocol.Err (Printf.sprintf "unknown document %S" doc)
    | Some (idx, d) -> (
      let w = Option.get d.writer in
      match Wal.apply d.r2 op with
      | exception Wal.Replay_error msg ->
        Protocol.Err ("update rejected: " ^ msg)
      | exception e ->
        (* The writer copy is a clone: an operation that fails part-way
           (Uid.Overflow) leaves it at its previous version. *)
        Protocol.Err ("update rejected: " ^ Printexc.to_string e)
      | area, changed ->
        d.applied_seq <- d.applied_seq + 1;
        let record = { Wal.seq = d.applied_seq; op; area; changed } in
        Wal.append_record w record;
        d.local_size <- Replication.file_size d.wal_path;
        let version = local_version t in
        let prev = Atomic.get t.current in
        let next =
          match Snapshot.advance prev ~version [ (idx, [ op ], version) ]
          with
          | next, _ -> next
          | exception _ ->
            Snapshot.replace_doc prev ~version ~doc_version:version
              ~doc_index:idx d.r2
        in
        install t idx d next;
        Protocol.Ok_
          (Printf.sprintf "v=%d seq=%d area=%d changed=%d batch=1" version
             record.Wal.seq area changed)))

let close_wake t =
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ fst t.wake; snd t.wake ]

(* The replica's part of a graceful stop, run by the listener once every
   session is joined; the puller sees the listener stopping and exits. *)
let teardown t () =
  wake_puller t;
  (match t.pull_thread with Some th -> Thread.join th | None -> ());
  close_wake t;
  Pool.shutdown t.sched

let stop t = Listener.stop t.listener
let wait t = Listener.wait t.listener

(* Verb dispatch; the listener answers PING, STATS and SHUTDOWN itself. *)
let dispatch t (req : Protocol.request) =
  match req with
  (* identical read semantics — and reply bytes — to the primary, over the
     local snapshot (no result cache on replicas: staleness is governed by
     the snapshot alone) *)
  | Protocol.Query _ | Protocol.Count _ | Protocol.Explain _
  | Protocol.Check _ | Protocol.Query_doc _ | Protocol.Count_doc _ ->
    Listener.Queued
      (t.sched, fun () -> Service.eval_read (Atomic.get t.current) req)
  | Protocol.Docs ->
    Listener.Inline (fun () -> Service.eval_read (Atomic.get t.current) req)
  | Protocol.Repl_state -> Listener.Inline (fun () -> run_repl_state t)
  | Protocol.Repl_file { doc; file; offset; limit } ->
    Listener.Inline (fun () -> run_repl_file t doc file offset limit)
  | Protocol.Repl_wait { doc; gen; offset; timeout_ms } ->
    Listener.Inline (fun () -> run_repl_wait t doc gen offset timeout_ms)
  | Protocol.Promote -> Listener.Inline (fun () -> promote t)
  | Protocol.Update { doc; op } ->
    Listener.Inline (fun () -> run_update t doc op)
  | Protocol.Sleep ms ->
    Listener.Inline
      (fun () ->
        Thread.delay (float_of_int ms /. 1000.);
        Protocol.Ok_ (Printf.sprintf "slept=%d" ms))
  | Protocol.Add_doc _ | Protocol.Add_chunk _ | Protocol.Adopt _
  | Protocol.Adopt_abort _ | Protocol.Drop_doc _ ->
    (* collection membership is the primary's to change; it replicates
       through the journal/file shipping like any other write *)
    Listener.Inline
      (fun () ->
        Protocol.Err
          (Protocol.verb req ^ ": this node is a read-only replica"))
  | Protocol.Rebalance _ ->
    Listener.Inline
      (fun () ->
        Protocol.Err "REBALANCE: this node is a replica; connect to the router")
  | Protocol.Ping | Protocol.Stats | Protocol.Shutdown ->
    Listener.Inline
      (fun () -> Protocol.Err "internal: node verb reached the replica")

(* ------------------------------------------------------------------ *)
(* Startup                                                             *)
(* ------------------------------------------------------------------ *)

let start ?chaos cfg =
  (match validate_config cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Replica.start: " ^ msg));
  Service.ensure_dir cfg.data_dir;
  (* Bootstrap over one dedicated connection.  A [Fenced] raised here is
     fatal by design: the configured upstream is provably behind the fence
     this data directory has already seen, and following it would merge a
     deposed primary's writes. *)
  let docs, upstream_epoch =
    Client.with_connection cfg.primary @@ fun conn ->
    (* seed the fence from disk before the first reply can be checked *)
    let persisted = Replication.load_epoch cfg.data_dir in
    let t0_epoch = Atomic.make persisted in
    let check got =
      let seen = Atomic.get t0_epoch in
      if got < seen then raise (Fenced { seen; got })
      else if got > seen then Atomic.set t0_epoch got
    in
    let st =
      match Client.request conn Protocol.Repl_state with
      | Protocol.Ok_ body -> (
        match Replication.decode_state body with
        | Ok st ->
          check st.Replication.s_epoch;
          st
        | Error why -> failwith ("REPL STATE: bad reply: " ^ why))
      | Protocol.Err m -> failwith ("REPL STATE: upstream ERR " ^ m)
      | Protocol.Busy m -> failwith ("REPL STATE: upstream BUSY " ^ m)
    in
    if st.Replication.s_docs = [] then
      failwith "upstream hosts no documents";
    (st, Atomic.get t0_epoch)
  in
  let planner_shared =
    Rxpath.Planner.make_shared ~plan_cache:cfg.plan_cache ()
  in
  let metrics = Metrics.create () in
  let listener = Listener.create ~metrics cfg.socket_path in
  let on_exn ~label e = Metrics.record_dropped metrics ~verb:label e in
  let sched =
    Pool.create ~on_exn ~kind:`Threads ~workers:cfg.workers
      ~max_queue:
        (Service.resolved_max_queue ~max_queue:cfg.max_queue
           ~workers:cfg.workers ~domains:0)
      ()
  in
  let t =
    {
      cfg;
      chaos;
      docs = [||];
      current = Atomic.make (Snapshot.capture ~version:1 []);
      write_mu = Mutex.create ();
      files_mu = Mutex.create ();
      epoch = Atomic.make (max 1 upstream_epoch);
      role = `Following;
      reconnects = Atomic.make 0;
      refused_epoch = Atomic.make 0;
      repl_requests = Atomic.make 0;
      repl_bytes = Atomic.make 0;
      lag_versions = Atomic.make 0;
      lag_bytes = Atomic.make 0;
      sched;
      metrics;
      listener;
      pull_thread = None;
      pull_stop = Atomic.make false;
      wake = Unix.pipe ~cloexec:true ();
    }
  in
  Replication.store_epoch cfg.data_dir (Atomic.get t.epoch);
  (* mirror + replay each hosted document, then publish the first local
     snapshot at the version the contract dictates *)
  let docs =
    match
      Client.with_connection cfg.primary @@ fun conn ->
      Array.of_list
        (List.map
           (fun (u : Replication.doc_state) ->
             try bootstrap_doc t conn u
             with Dropped_upstream msg -> failwith msg)
           docs.Replication.s_docs)
    with
    | docs -> docs
    | exception e ->
      (* a failed bootstrap leaves neither a socket nor a worker behind *)
      Listener.stop listener;
      Pool.shutdown sched;
      close_wake t;
      raise e
  in
  let t = { t with docs } in
  (* The recovered numberings are handed to the snapshot as they are; each
     writer copy is a clone sharing them. *)
  let version = local_version t in
  let snap, _ =
    Snapshot.host (Snapshot.capture ~version []) ~planner:planner_shared
      ~version
      (Array.to_list (Array.map (fun d -> (d.name, d.r2)) t.docs))
  in
  Array.iteri (fun idx d -> install t idx d snap) t.docs;
  Metrics.set_queue_probe metrics (fun () -> Pool.queue_depth t.sched);
  Metrics.set_snapshot_probe metrics (fun () ->
      let s = Atomic.get t.current in
      (s.Snapshot.version, s.Snapshot.published_at));
  Metrics.set_repl_probe metrics (fun () ->
      {
        Metrics.role =
          (match t.role with `Following -> "replica" | `Promoted -> "promoted");
        epoch = Atomic.get t.epoch;
        served_requests = Atomic.get t.repl_requests;
        served_bytes = Atomic.get t.repl_bytes;
        lag_versions = Atomic.get t.lag_versions;
        lag_bytes = Atomic.get t.lag_bytes;
        last_applied_seq =
          Array.fold_left (fun acc d -> acc + d.applied_seq) 0 t.docs;
        reconnects = Atomic.get t.reconnects;
        refused_epoch = Atomic.get t.refused_epoch;
      });
  t.pull_thread <- Some (Thread.create puller t);
  Listener.serve listener ~teardown:(teardown t) (dispatch t);
  t
