(* The collection router.  See router.mli for the contract.  It serves on
   the same {!Listener} as Service; its verb handler, instead
   of evaluating requests against a local snapshot, forwards every
   request to the shard that owns its document, or scatters it to all
   shards and merges.

   The router runs no admission queue and no threads of its own — every
   verb runs inline on its session thread, which performs its forwards
   and scatters itself: a scatter writes the request to each shard's
   pooled connection and waits for the replies in one select.  The
   shards' queues provide the backpressure (a BUSY from a shard travels
   back verbatim).  What the router does own is the rebalance
   gate: a reader/writer lock where every forwarded request is a reader
   and the commit window of a document move is the sole writer, so the
   map flip and the journal tail shipment happen with no router traffic
   in flight. *)

type config = {
  socket_path : string;
  shard_sockets : string array;
  fanout : int;
  shard_deadline_ms : int;
  connect_retries : int;
}

let default_config ~socket_path ~shard_sockets () =
  {
    socket_path;
    shard_sockets;
    fanout = 0;
    shard_deadline_ms = 2_000;
    connect_retries = 3;
  }

let validate_config cfg =
  if Array.length cfg.shard_sockets = 0 then
    Error "at least one shard socket is required"
  else if Array.exists (fun s -> s = "") cfg.shard_sockets then
    Error "shard socket paths must not be empty"
  else if Array.exists (fun s -> s = cfg.socket_path) cfg.shard_sockets then
    Error "the router socket cannot double as a shard socket"
  else if cfg.fanout < 0 then Error "fanout must be >= 0"
  else if cfg.shard_deadline_ms < 0 then Error "shard_deadline_ms must be >= 0"
  else if cfg.connect_retries < 0 then Error "connect_retries must be >= 0"
  else Listener.check_socket_path cfg.socket_path

(* One pooled connection per shard, serialized by a mutex: the protocol
   is strictly request/reply per connection, so sharing one costs only
   queueing, never interleaving bugs.  [up] is a health note, not a
   guard — a down shard still gets one cheap connect attempt per call,
   which is how it comes back. *)
type shard = {
  socket : string;
  smu : Mutex.t;
  mutable conn : Client.t option;
  mutable up : bool;
}

type t = {
  cfg : config;
  shards : shard array;
  map : Shard_map.t;
  metrics : Metrics.t;
  (* rebalance gate *)
  gate_mu : Mutex.t;
  gate_cond : Condition.t;
  mutable gate_readers : int;
  mutable gate_writer : bool;
  (* catalog of every document name the router has seen, for the
     per-shard gauge (placement itself lives in [map]) *)
  known : (string, unit) Hashtbl.t;
  (* counters *)
  stat_mu : Mutex.t;
  mutable scatters : int;
  mutable partials : int;
  fanout_hist : int array;  (* slot k: scatters that reached k shards *)
  mutable rebalances : int;
  mutable rebalance_pause_ms : float;
  inflight : int Atomic.t;
  listener : Listener.t;
}

let metrics t = t.metrics
let shard_map t = t.map

(* --- Rebalance gate ------------------------------------------------ *)

let gate_enter_read t =
  Mutex.lock t.gate_mu;
  while t.gate_writer do
    Condition.wait t.gate_cond t.gate_mu
  done;
  t.gate_readers <- t.gate_readers + 1;
  Mutex.unlock t.gate_mu

let gate_exit_read t =
  Mutex.lock t.gate_mu;
  t.gate_readers <- t.gate_readers - 1;
  if t.gate_readers = 0 then Condition.broadcast t.gate_cond;
  Mutex.unlock t.gate_mu

let gate_enter_write t =
  Mutex.lock t.gate_mu;
  while t.gate_writer do
    Condition.wait t.gate_cond t.gate_mu
  done;
  t.gate_writer <- true;
  (* new readers now park on [gate_writer]; wait out the in-flight ones *)
  while t.gate_readers > 0 do
    Condition.wait t.gate_cond t.gate_mu
  done;
  Mutex.unlock t.gate_mu

let gate_exit_write t =
  Mutex.lock t.gate_mu;
  t.gate_writer <- false;
  Condition.broadcast t.gate_cond;
  Mutex.unlock t.gate_mu

let with_read_gate t f =
  gate_enter_read t;
  Fun.protect ~finally:(fun () -> gate_exit_read t) f

(* --- Talking to shards --------------------------------------------- *)

(* The shard's pooled connection, opened if there is none: with backoff
   while the shard was thought up (it may be mid-restart), with a single
   cheap attempt while it was already known down, so a dead shard costs
   each request one connect(2) and not a retry budget.  The caller holds
   [sh.smu]. *)
let connection t sh =
  match sh.conn with
  | Some c -> Some c
  | None -> (
    match
      if sh.up then
        Client.connect_retry ~retries:t.cfg.connect_retries ~budget_ms:500
          sh.socket
      else Client.connect sh.socket
    with
    | c ->
      sh.conn <- Some c;
      sh.up <- true;
      Some c
    | exception _ ->
      sh.up <- false;
      None)

(* A failed call poisons the pooled connection (a late reply would
   desynchronize the stream) and marks the shard down; the next call
   reconnects. *)
let poison sh =
  (match sh.conn with Some c -> Client.close c | None -> ());
  sh.conn <- None;
  sh.up <- false

(* Send [line] to every shard in [targets] (ascending indexes) and collect
   the replies in the same order; [None] means the shard is unreachable,
   failed, hung up or missed its deadline.  The calling thread does it
   all.  It locks each target's connection in ascending index order — the
   one order every caller uses, so no two sessions can deadlock — writes
   the request, and keeps at most [fanout] requests outstanding, parked in
   one select over their sockets.  A lock is released as soon as its
   shard's reply is read or given up on, and every lock on every exit; an
   exit that leaves a request outstanding poisons its connection. *)
let exchange t ~fanout targets line =
  let results = Array.make (Array.length targets) None in
  let held = Array.make (Array.length targets) false in
  (* (slot, connection, deadline) of every request awaiting its reply *)
  let outstanding = ref [] in
  let timeout_s = float_of_int t.cfg.shard_deadline_ms /. 1000. in
  let settle slot reply =
    let sh = t.shards.(targets.(slot)) in
    if Option.is_none reply then poison sh;
    results.(slot) <- reply;
    held.(slot) <- false;
    Mutex.unlock sh.smu;
    Atomic.decr t.inflight
  in
  let await () =
    let until =
      List.fold_left (fun acc (_, _, d) -> Float.min acc d) infinity
        !outstanding
    in
    let ready =
      Client.wait_readable (List.map (fun (_, c, _) -> c) !outstanding) ~until
    in
    let now = Unix.gettimeofday () in
    outstanding :=
      List.filter
        (fun (slot, c, deadline) ->
          if List.memq c ready then begin
            settle slot (try Some (Client.receive c) with _ -> None);
            false
          end
          else if deadline <= now then begin
            settle slot None;
            false
          end
          else true)
        !outstanding
  in
  let release_all () =
    Array.iteri (fun slot h -> if h then settle slot None) held
  in
  Fun.protect ~finally:release_all @@ fun () ->
  Array.iteri
    (fun slot i ->
      while List.length !outstanding >= fanout do
        await ()
      done;
      let sh = t.shards.(i) in
      Atomic.incr t.inflight;
      Mutex.lock sh.smu;
      held.(slot) <- true;
      match connection t sh with
      | None -> settle slot None
      | Some c -> (
        match Client.send_raw c line with
        | () ->
          let deadline =
            if t.cfg.shard_deadline_ms = 0 then infinity
            else Unix.gettimeofday () +. timeout_s
          in
          outstanding := (slot, c, deadline) :: !outstanding
        | exception _ -> settle slot None))
    targets;
  while not (List.is_empty !outstanding) do
    await ()
  done;
  results

(* One request against shard [i]: the one-shard case of [exchange]. *)
let shard_call t i req =
  (exchange t ~fanout:1 [| i |] (Protocol.request_to_string req)).(0)

(* --- Merge kernels -------------------------------------------------- *)

(* Mirror of Service's reply caps: at most this many per-document tokens
   / result identifiers are listed, with ["..."] marking elision.  The
   merged reply honours the same caps so a router answer never outgrows
   a frame no matter how many shards contribute. *)
let doc_cap = 64
let id_cap = 32

let tokens_of body =
  String.split_on_char ' ' body |> List.filter (fun s -> s <> "")

let kv_int_tok tok key =
  let prefix = key ^ "=" in
  let plen = String.length prefix in
  if String.length tok > plen && String.sub tok 0 plen = prefix then
    int_of_string_opt (String.sub tok plen (String.length tok - plen))
  else None

let partial_token ~shards ~missing =
  if missing = [] then ""
  else Printf.sprintf " partial=%d/%d" (List.length missing) shards

(* COUNT/QUERY bodies: [v=N total=N name=n ... [...] [ids id ... [...]]].
   The parser is shape-tolerant (unknown tokens are kept as document
   tokens) so a cap bump on the shard side cannot crash the router. *)
type parts = {
  v : int;
  total : int;
  docs : string list;  (** raw [name=n] tokens, shard order preserved *)
  docs_elided : bool;
  ids : string list;
  ids_elided : bool;
}

let parse_parts body =
  let rec go acc in_ids = function
    | [] -> acc
    | "..." :: rest ->
      let acc =
        if in_ids then { acc with ids_elided = true }
        else { acc with docs_elided = true }
      in
      go acc in_ids rest
    | "ids" :: rest when not in_ids -> go acc true rest
    | tok :: rest -> (
      match (kv_int_tok tok "v", kv_int_tok tok "total") with
      | Some v, _ -> go { acc with v } in_ids rest
      | _, Some total -> go { acc with total } in_ids rest
      | None, None ->
        let acc =
          if in_ids then { acc with ids = tok :: acc.ids }
          else { acc with docs = tok :: acc.docs }
        in
        go acc in_ids rest)
  in
  let p =
    go
      { v = 0; total = 0; docs = []; docs_elided = false; ids = [];
        ids_elided = false }
      false (tokens_of body)
  in
  { p with docs = List.rev p.docs; ids = List.rev p.ids }

let sum f parts = List.fold_left (fun acc p -> acc + f p) 0 parts

let capped cap xs = List.filteri (fun i _ -> i < cap) xs

let merge_count ~shards ~replies ~missing =
  let parts = List.map (fun (_, b) -> parse_parts b) replies in
  let v = sum (fun p -> p.v) parts in
  let total = sum (fun p -> p.total) parts in
  let docs = List.concat_map (fun p -> p.docs) parts in
  let elided =
    List.exists (fun p -> p.docs_elided) parts || List.length docs > doc_cap
  in
  Printf.sprintf "v=%d total=%d %s%s%s" v total
    (String.concat " " (capped doc_cap docs))
    (if elided then " ..." else "")
    (partial_token ~shards ~missing)

let merge_query ~shards ~replies ~missing =
  let parts = List.map (fun (_, b) -> parse_parts b) replies in
  let v = sum (fun p -> p.v) parts in
  let total = sum (fun p -> p.total) parts in
  let docs = List.concat_map (fun p -> p.docs) parts in
  let docs_elided =
    List.exists (fun p -> p.docs_elided) parts || List.length docs > doc_cap
  in
  let ids = capped id_cap (List.concat_map (fun p -> p.ids) parts) in
  Printf.sprintf "v=%d total=%d %s%s%s%s" v total
    (String.concat " " (capped doc_cap docs))
    (if docs_elided then " ..." else "")
    (if ids = [] then ""
     else
       " ids " ^ String.concat " " ids
       ^ if total > id_cap then " ..." else "")
    (partial_token ~shards ~missing)

let split_first_line body =
  match String.index_opt body '\n' with
  | None -> (body, "")
  | Some i ->
    (String.sub body 0 i, String.sub body (i + 1) (String.length body - i - 1))

let merge_explain ~shards ~replies ~missing =
  let v =
    sum
      (fun (_, b) ->
        let first, _ = split_first_line b in
        match kv_int_tok first "v" with Some v -> v | None -> 0)
      replies
  in
  let sections =
    List.init shards (fun i ->
        match List.assoc_opt i replies with
        | Some body ->
          let _, rest = split_first_line body in
          Printf.sprintf "shard %d\n%s" i rest
        | None -> Printf.sprintf "shard %d unavailable" i)
  in
  Printf.sprintf "v=%d%s\n%s" v
    (partial_token ~shards ~missing)
    (String.concat "\n" sections)

(* DOCS merges to per-shard counts, never a name list: at collection
   scale (the 100k-document corpus) the concatenated names would
   overflow the frame cap. *)
let merge_docs ~shards ~replies ~missing =
  let count_of body =
    match
      List.find_map (fun tok -> kv_int_tok tok "docs") (tokens_of body)
    with
    | Some n -> n
    | None -> 0
  in
  let v =
    sum
      (fun (_, b) ->
        match List.find_map (fun tok -> kv_int_tok tok "v") (tokens_of b) with
        | Some v -> v
        | None -> 0)
      replies
  in
  let total = sum (fun (_, b) -> count_of b) replies in
  Printf.sprintf "v=%d docs=%d%s%s" v total
    (String.concat ""
       (List.map
          (fun (i, b) -> Printf.sprintf " shard%d=%d" i (count_of b))
          replies))
    (partial_token ~shards ~missing)

(* --- Scatter-gather ------------------------------------------------- *)

(* Fan the request out to every shard from the session thread itself —
   at most [fanout] requests outstanding, one select over their sockets —
   and sort the per-shard outcomes in shard order. *)
let scatter t req =
  let n = Array.length t.shards in
  let fanout = if t.cfg.fanout <= 0 then n else min t.cfg.fanout n in
  let results =
    exchange t ~fanout (Array.init n Fun.id) (Protocol.request_to_string req)
  in
  let oks = ref [] and errs = ref [] and missing = ref [] in
  for i = n - 1 downto 0 do
    match results.(i) with
    | Some (Protocol.Ok_ body) -> oks := (i, body) :: !oks
    | Some (Protocol.Err msg) ->
      errs := (i, msg) :: !errs;
      missing := i :: !missing
    | Some (Protocol.Busy _) | None -> missing := i :: !missing
  done;
  (!oks, !errs, !missing)

let scatter_merge ?on_ok t req merge =
  let oks, errs, missing = scatter t req in
  (match on_ok with
  | Some f -> List.iter (fun (i, body) -> f i body) oks
  | None -> ());
  let n = Array.length t.shards in
  Mutex.lock t.stat_mu;
  t.scatters <- t.scatters + 1;
  if missing <> [] then t.partials <- t.partials + 1;
  let reached = n - List.length missing in
  t.fanout_hist.(reached) <- t.fanout_hist.(reached) + 1;
  Mutex.unlock t.stat_mu;
  match (oks, errs) with
  | [], (_, msg) :: _ ->
    (* no shard succeeded but some answered: a genuine error (bad XPath
       errs identically everywhere) beats a fabricated empty merge *)
    Protocol.Err msg
  | [], [] -> Protocol.Err "no shards available"
  | _ -> Protocol.Ok_ (merge ~shards:n ~replies:oks ~missing)

(* --- Single-document forwarding ------------------------------------- *)

let known_add t doc =
  Mutex.lock t.stat_mu;
  Hashtbl.replace t.known doc ();
  Mutex.unlock t.stat_mu

let known_remove t doc =
  Mutex.lock t.stat_mu;
  Hashtbl.remove t.known doc;
  Mutex.unlock t.stat_mu

(* A shard's DOCS body lists its document names: every one is a catalog
   fact (name -> shard) worth absorbing.  Runs at startup — so documents
   placed off-hash (serve --doc layouts) route correctly from the first
   request — and again on every client DOCS scatter, which keeps the
   catalog gauge honest about documents ingested directly to shards
   behind the router's back. *)
let absorb_docs_body t i body =
  List.iter
    (fun tok ->
      if (not (String.contains tok '=')) && tok <> "" && tok.[0] <> '.' then begin
        Shard_map.assign t.map tok i;
        known_add t tok
      end)
    (tokens_of body)

let is_unknown_doc msg =
  (* Service nodes phrase their miss replies "unknown document ..." *)
  let needle = "unknown document" in
  let nl = String.length needle and ml = String.length msg in
  let rec at i = i + nl <= ml && (String.sub msg i nl = needle || at (i + 1)) in
  at 0

(* Forward to the owning shard; on an unknown-document reply, probe the
   other shards with the same request — a document loaded directly into
   a shard (serve --doc) sits off-hash, and the probe is what teaches
   the map.  The probe re-sends the original request, not a lookup: for
   reads that is free, and for UPDATE it executes on whichever shard
   actually owns the document, which is exactly the intent. *)
let forward_doc t doc req =
  let owner = Shard_map.place t.map doc in
  let n = Array.length t.shards in
  match shard_call t owner req with
  | Some (Protocol.Err msg) when is_unknown_doc msg && n > 1 ->
    let rec probe i =
      if i >= n then Protocol.Err msg
      else if i = owner then probe (i + 1)
      else
        match shard_call t i req with
        | Some (Protocol.Ok_ _ as r) ->
          Shard_map.assign t.map doc i;
          known_add t doc;
          r
        | _ -> probe (i + 1)
    in
    probe 0
  | Some r -> r
  | None -> Protocol.Err (Printf.sprintf "shard %d unavailable" owner)

(* --- Rebalance ------------------------------------------------------ *)

(* Move one document between shards using only public machinery: the
   replication FILE verbs to read the source's artifacts and chunked
   ADOPTs to stage them on the target.  Two phases:

   Phase A (traffic flows): snapshot the source's (generation, journal
   size), ship the base pair, the current generation's checkpoint pair
   and the journal prefix up to the snapshotted size.

   Phase B (the measured pause): take the write side of the gate, so no
   router-forwarded request is in flight; re-read the source state; if
   the generation rotated meanwhile, abort staging and retry phase A
   (bounded); otherwise ship the journal bytes that accrued since the
   snapshot, commit the adoption, drop the source copy and flip the
   map.  Clients that route through the router can never see two
   copies; a client talking to a shard directly is outside the
   contract.

   A rotation retires the shipped generation's pair (the source keeps
   one), so every chunk of the pair and the journal must come from the
   generation phase A read; one from a newer generation retries.  The
   last two attempts hold the gate from phase A on: no routed write
   lands, and only a rotation already under way (it runs after its
   batch's acks) can still move the generation — once. *)

let rebalance_attempts = 3

exception Move_failed of string

(* The source rotated past the generation being shipped. *)
exception Rotated_away

let move_err fmt = Printf.ksprintf (fun m -> raise (Move_failed m)) fmt

let call_ok t i req ~what =
  match shard_call t i req with
  | Some (Protocol.Ok_ body) -> body
  | Some (Protocol.Err msg) -> move_err "%s: shard %d: %s" what i msg
  | Some (Protocol.Busy why) -> move_err "%s: shard %d busy: %s" what i why
  | None -> move_err "%s: shard %d unavailable" what i

let source_state t source doc =
  let body = call_ok t source Protocol.Repl_state ~what:"REPL STATE" in
  match Replication.decode_state body with
  | Error msg -> move_err "REPL STATE: undecodable reply: %s" msg
  | Ok st -> (
    match
      List.find_opt (fun d -> d.Replication.name = doc) st.Replication.s_docs
    with
    | Some d -> (d.Replication.gen, d.Replication.size)
    | None -> move_err "unknown document %S on shard %d" doc source)

(* Fetch [file] bytes [from, upto) from [source] and stage them on
   [target], one REPL FILE chunk per ADOPT.  [upto = max_int] means "to
   the end as currently reported".  With [?gen], a chunk the source
   labels with another generation raises [Rotated_away]. *)
let ship_file ?gen t ~source ~target ~doc ~file ~from ~upto =
  let rec go offset =
    if offset < upto then begin
      let limit = min Replication.max_chunk (upto - offset) in
      let body =
        call_ok t source
          (Protocol.Repl_file { doc; file; offset; limit })
          ~what:"REPL FILE"
      in
      match Replication.decode_chunk body with
      | Error msg -> move_err "REPL FILE: undecodable chunk: %s" msg
      | Ok chunk ->
        (match gen with
        | Some g when chunk.Replication.gen <> g -> raise Rotated_away
        | _ -> ());
        if chunk.Replication.data <> "" then
          ignore
            (call_ok t target
               (Protocol.Adopt
                  { doc; file; last = false; bytes = chunk.Replication.data })
               ~what:"ADOPT");
        let next = offset + String.length chunk.Replication.data in
        let upto = min upto chunk.Replication.size in
        if chunk.Replication.data = "" || next >= upto then ()
        else go next
    end
  in
  go from

let abort_staging t target doc =
  ignore (shard_call t target (Protocol.Adopt_abort doc))

let run_rebalance t doc target =
  let n = Array.length t.shards in
  if target < 0 || target >= n then
    Protocol.Err (Printf.sprintf "REBALANCE: target %d out of range" target)
  else begin
    let source = Shard_map.place t.map doc in
    if source = target then
      Protocol.Ok_
        (Printf.sprintf "doc=%s shard=%d already-placed pause_ms=0.0" doc
           target)
    else
      try
        (* clear any staging a crashed predecessor left behind *)
        ignore (call_ok t target (Protocol.Adopt_abort doc) ~what:"ADOPTABORT");
        let held = ref false in
        let enter () =
          gate_enter_write t;
          held := true;
          Unix.gettimeofday ()
        and leave () =
          if !held then begin
            held := false;
            gate_exit_write t
          end
        in
        let rec attempt tries =
          if tries = 0 then
            move_err "journal kept rotating; gave up after %d attempts"
              rebalance_attempts;
          let gated = tries <= 2 in
          let t0 = ref (if gated then enter () else 0.) in
          match
            (* Phase A: bulk transfer (while traffic flows, ungated) *)
            let gen_a, size_a = source_state t source doc in
            let ship ?gen file ~from ~upto =
              ship_file ?gen t ~source ~target ~doc ~file ~from ~upto
            in
            ship Protocol.Base_xml ~from:0 ~upto:max_int;
            ship Protocol.Base_sidecar ~from:0 ~upto:max_int;
            if gen_a > 0 then begin
              ship ~gen:gen_a (Protocol.Ckpt_xml gen_a) ~from:0 ~upto:max_int;
              ship ~gen:gen_a (Protocol.Ckpt_sidecar gen_a) ~from:0
                ~upto:max_int
            end;
            ship ~gen:gen_a Protocol.Active_wal ~from:0 ~upto:size_a;
            (* Phase B: the measured pause *)
            if not gated then t0 := enter ();
            let gen_b, size_b = source_state t source doc in
            if gen_b <> gen_a then raise Rotated_away;
            if size_b > size_a then
              ship ~gen:gen_a Protocol.Active_wal ~from:size_a ~upto:size_b;
            let body =
              call_ok t target
                (Protocol.Adopt
                   { doc; file = Protocol.Active_wal; last = true;
                     bytes = "" })
                ~what:"ADOPT commit"
            in
            let dropped =
              match shard_call t source (Protocol.Drop_doc doc) with
              | Some (Protocol.Ok_ _) -> true
              | _ -> false
            in
            Shard_map.move t.map doc target;
            known_add t doc;
            (body, dropped)
          with
          | body, dropped ->
            let pause_ms = (Unix.gettimeofday () -. !t0) *. 1000. in
            leave ();
            Mutex.lock t.stat_mu;
            t.rebalances <- t.rebalances + 1;
            t.rebalance_pause_ms <- t.rebalance_pause_ms +. pause_ms;
            Mutex.unlock t.stat_mu;
            Protocol.Ok_
              (Printf.sprintf "doc=%s from=%d to=%d pause_ms=%.1f %s%s" doc
                 source target pause_ms body
                 (if dropped then "" else " warn=source-drop-failed"))
          | exception Rotated_away ->
            leave ();
            abort_staging t target doc;
            attempt (tries - 1)
          | exception e ->
            leave ();
            raise e
        in
        attempt rebalance_attempts
      with Move_failed msg ->
        abort_staging t target doc;
        Protocol.Err ("REBALANCE: " ^ msg)
  end

(* --- Serving --------------------------------------------------------- *)

(* The router's part of a graceful stop, run by the listener once every
   session is joined: close the pooled shard connections. *)
let teardown t () =
  Array.iter
    (fun sh ->
      Mutex.lock sh.smu;
      (match sh.conn with Some c -> Client.close c | None -> ());
      sh.conn <- None;
      Mutex.unlock sh.smu)
    t.shards

let stop t = Listener.stop t.listener
let wait t = Listener.wait t.listener

(* The listener answers PING, STATS and SHUTDOWN itself. *)
let run_request t (req : Protocol.request) =
  match req with
  | Protocol.Ping | Protocol.Stats | Protocol.Shutdown ->
    Protocol.Err "internal: node verb reached the router"
  | Protocol.Sleep _ ->
    Protocol.Err "SLEEP: the router runs no workers to hold"
  | Protocol.Repl_state | Protocol.Repl_file _ | Protocol.Repl_wait _
  | Protocol.Promote ->
    Protocol.Err
      (Protocol.verb req ^ ": this node is a router, not a shard or replica")
  | Protocol.Adopt _ | Protocol.Adopt_abort _ ->
    Protocol.Err
      (Protocol.verb req ^ ": shard-internal verb; not valid at the router")
  (* the writer side of the gate *)
  | Protocol.Rebalance { doc; target } -> run_rebalance t doc target
  (* everything else reads the gate and talks to shards *)
  | Protocol.Query _ | Protocol.Count _ | Protocol.Explain _ | Protocol.Docs
  | Protocol.Update _ | Protocol.Check _ | Protocol.Query_doc _
  | Protocol.Count_doc _ | Protocol.Add_doc _ | Protocol.Add_chunk _
  | Protocol.Drop_doc _ ->
    with_read_gate t @@ fun () -> (
      match req with
      | Protocol.Query _ -> scatter_merge t req merge_query
      | Protocol.Count _ -> scatter_merge t req merge_count
      | Protocol.Explain _ -> scatter_merge t req merge_explain
      | Protocol.Docs ->
        scatter_merge t req merge_docs ~on_ok:(absorb_docs_body t)
      | Protocol.Update { doc; _ }
      | Protocol.Check doc
      | Protocol.Query_doc { doc; _ }
      | Protocol.Count_doc { doc; _ } ->
        forward_doc t doc req
      | Protocol.Add_doc { doc; _ } | Protocol.Add_chunk { doc; _ } -> begin
        (* new documents go to their hash home unless the map says
           otherwise; [place] is deterministic, so every chunk of an
           ADDCHUNK sequence lands on the same shard's spool.  A success
           is a catalog fact worth keeping — for ADDCHUNK only the
           committing chunk's reply carries it (nodes= appears only
           there). *)
        let owner = Shard_map.place t.map doc in
        match shard_call t owner req with
        | Some (Protocol.Ok_ _ as r) ->
          let committed =
            match req with
            | Protocol.Add_chunk { last = false; _ } -> false
            | _ -> true
          in
          if committed then known_add t doc;
          r
        | Some r -> r
        | None -> Protocol.Err (Printf.sprintf "shard %d unavailable" owner)
      end
      | Protocol.Drop_doc doc -> begin
        match forward_doc t doc req with
        | Protocol.Ok_ _ as r ->
          Shard_map.forget t.map doc;
          known_remove t doc;
          r
        | r -> r
      end
      | _ -> assert false)

(* --- Startup -------------------------------------------------------- *)

let seed_catalog t =
  Array.iteri
    (fun i _ ->
      match shard_call t i Protocol.Docs with
      | Some (Protocol.Ok_ body) -> absorb_docs_body t i body
      | _ -> ())
    t.shards

let start cfg =
  (match validate_config cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Router.start: " ^ msg));
  (* The listener ignores SIGPIPE: a shard dying mid-write surfaces as
     EPIPE on the pooled connection — caught and turned into a down mark —
     never as a process-killing signal. *)
  let metrics = Metrics.create () in
  let listener = Listener.create ~metrics cfg.socket_path in
  let n = Array.length cfg.shard_sockets in
  let t =
    {
      cfg;
      shards =
        Array.map
          (fun socket ->
            { socket; smu = Mutex.create (); conn = None; up = true })
          cfg.shard_sockets;
      map = Shard_map.create ~shards:n;
      metrics;
      gate_mu = Mutex.create ();
      gate_cond = Condition.create ();
      gate_readers = 0;
      gate_writer = false;
      known = Hashtbl.create 1024;
      stat_mu = Mutex.create ();
      scatters = 0;
      partials = 0;
      fanout_hist = Array.make (n + 1) 0;
      rebalances = 0;
      rebalance_pause_ms = 0.;
      inflight = Atomic.make 0;
      listener;
    }
  in
  Metrics.set_router_probe t.metrics (fun () ->
      Mutex.lock t.stat_mu;
      let known = Hashtbl.fold (fun k () acc -> k :: acc) t.known [] in
      let stats =
        {
          Metrics.shard_up = Array.map (fun sh -> sh.up) t.shards;
          shard_docs = Shard_map.doc_counts t.map ~known;
          inflight = Atomic.get t.inflight;
          scatters = t.scatters;
          partials = t.partials;
          fanout_hist = Array.copy t.fanout_hist;
          rebalances = t.rebalances;
          rebalance_pause_ms = t.rebalance_pause_ms;
        }
      in
      Mutex.unlock t.stat_mu;
      stats);
  seed_catalog t;
  Listener.serve listener ~teardown:(teardown t) (fun req ->
      Listener.Inline (fun () -> run_request t req));
  t
