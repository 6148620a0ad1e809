(* Server-side layers, timed by replay.

   The benchmark adds no spans inside the program, so after a traced live
   phase it replays the run's exact requests in this process through the
   same public calls the server composes — the read path of
   [Service.eval_read], the write path's apply / journal / publish, the
   ingest path's build / persist / host, and the router's merge — with a
   span around each call.  Each replayed reply is compared with the one
   the live deployment sent, so the replay is checked to do the server's
   work, not merely similar work. *)

open Perfbench_lib
module P = Rserver.Protocol
module S = Rserver.Snapshot
module Q = Rserver.Query_cache
module R2 = Ruid.Ruid2
module Wal = Rstorage.Wal

(* The serving processes' numbering parameter (ruidtool's default). *)
let max_area_size = 64

let span tr ?parent ~kind ~req name layer f =
  Trace.with_span tr ?parent ~name ~layer ~kind ~req f

(* ------------------------------------------------------------------ *)
(* Documents: build, persist, journal, host                            *)
(* ------------------------------------------------------------------ *)

type built = {
  name : string;
  r2 : R2.t;
  wal : Wal.writer;  (** the document's fresh journal *)
  bytes : int;
  saved_bytes : int;
}

(* Request ids of replayed documents, unique across calls. *)
let next_doc_req = ref 40_000_000

(* Replay the ingest path of each document — [Stream_build.of_file],
   [Persist.save], [Wal.create], then [host] (a [Snapshot.add_doc]) —
   under request kind "DOC".  [Ruid2.number] over the built tree is timed
   alongside, on its own, for the numbering layer. *)
let documents tr ~dir ~host (files : Inputs.doc_file list) =
  List.map
    (fun (f : Inputs.doc_file) ->
      let req = !next_doc_req in
      incr next_doc_req;
      let kind = "DOC" in
      span tr ~kind ~req "document" "service" @@ fun root ->
      let b =
        span tr ~parent:root ~kind ~req "Stream_build.of_file" "stream_build"
          (fun _ -> Ruid.Stream_build.of_file ~max_area_size f.Inputs.path)
      in
      span tr ~parent:root ~kind ~req "Ruid2.number" "ruid2" (fun _ ->
          ignore (R2.number ~max_area_size b.Ruid.Stream_build.doc));
      let base = Filename.concat dir f.Inputs.name in
      let r2 = b.Ruid.Stream_build.r2 in
      span tr ~parent:root ~kind ~req "Persist.save" "persist" (fun _ ->
          Ruid.Persist.save r2 ~xml:(base ^ ".xml") ~sidecar:(base ^ ".ruid"));
      let wal =
        span tr ~parent:root ~kind ~req "Wal.create" "wal" (fun _ ->
            Wal.create (base ^ ".wal"))
      in
      span tr ~parent:root ~kind ~req "Snapshot.add_doc" "snapshot" (fun _ ->
          host f.Inputs.name r2);
      {
        name = f.Inputs.name;
        r2;
        wal;
        bytes = f.Inputs.bytes;
        saved_bytes = Proc.file_bytes (base ^ ".xml") + Proc.file_bytes (base ^ ".ruid");
      })
    files

(* ------------------------------------------------------------------ *)
(* Reads: the composition of Service's read verbs                       *)
(* ------------------------------------------------------------------ *)

(* Layer of the spans that time work only the replay does; they are left
   out of every figure. *)
let replay_layer = "replay"

(* Reply rendering, as Service does it. *)
let id_cap = 32
let doc_cap = 64

let capped_tokens render per_doc =
  let listed = List.filteri (fun i _ -> i < doc_cap) per_doc in
  String.concat " " (List.map render listed)
  ^ if List.length per_doc > doc_cap then " ..." else ""

let pp_id_compact (id : R2.id) =
  Printf.sprintf "(%d,%d,%b)" id.R2.global id.R2.local id.R2.is_root

let query_reply version per_doc =
  let total = List.fold_left (fun acc (_, n, _) -> acc + n) 0 per_doc in
  let ids =
    List.concat_map
      (fun (name, _, ids) -> List.map (fun i -> name ^ ":" ^ i) ids)
      per_doc
  in
  let shown = List.filteri (fun i _ -> i < id_cap) ids in
  Printf.sprintf "v=%d total=%d %s%s" version total
    (capped_tokens (fun (name, n, _) -> Printf.sprintf "%s=%d" name n) per_doc)
    (if shown = [] then ""
     else
       " ids " ^ String.concat " " shown ^ if total > id_cap then " ..." else "")

(* One read verb over [snap], with [cache] when the deployment has one.
   Returns the OK body the server would send. *)
let read tr ?parent ?cache ~kind ~req snap (request : P.request) =
  let span ?(parent = Option.value parent ~default:0) name layer f =
    span tr ~parent ~kind ~req name layer f
  in
  span "read" "service" @@ fun root ->
  let span name layer f = span ~parent:root name layer f in
  let xpath, doc, counting =
    match request with
    | P.Count x -> (x, None, true)
    | P.Query x -> (x, None, false)
    | P.Count_doc { doc; xpath } -> (xpath, Some doc, true)
    | P.Query_doc { doc; xpath } -> (xpath, Some doc, false)
    | _ -> invalid_arg "Replay.read: not a read"
  in
  let normq = span "Query_cache.normalize" "query_cache" (fun _ -> Q.normalize xpath) in
  let parsed = lazy (span "Snapshot.parse" "planner" (fun _ -> S.parse xpath)) in
  let version = snap.S.version in
  let compute (d : S.doc) =
    let u = Lazy.force parsed in
    let second_lookup =
      match d.S.planner with
      | Some p ->
        span "Planner.plan_for" "planner" (fun _ -> ignore (Rxpath.Planner.plan_for p u));
        (* [count_doc]/[query_doc] plan again: a plan-cache hit that the
           server, which plans only inside them, does not make.  One such
           lookup is timed here and charged to the replay, not to exec. *)
        let t0 = Unix.gettimeofday () in
        ignore (Rxpath.Planner.plan_for p u);
        Unix.gettimeofday () -. t0
      | None -> 0.
    in
    let exec name f =
      span name "exec" (fun id ->
          let t0 = Unix.gettimeofday () in
          let v = f () in
          Trace.add tr
            { Trace.id = Trace.fresh_id tr; parent = id;
              name = "Planner.plan_for (cache hit)"; layer = replay_layer; kind;
              req; t0; t1 = Float.min (t0 +. second_lookup) (Unix.gettimeofday ()) };
          v)
    in
    if counting then string_of_int (exec "Snapshot.count_doc" (fun () -> S.count_doc d u))
    else
      let nodes = exec "Snapshot.query_doc" (fun () -> S.query_doc d u) in
      let ids =
        List.filteri (fun i _ -> i < id_cap) nodes
        |> List.map (fun n -> pp_id_compact (R2.id_of_node d.S.r2 n))
      in
      String.concat " " (string_of_int (List.length nodes) :: ids)
  in
  let value (d : S.doc) =
    match cache with
    | None -> compute d
    | Some c -> (
      let query = (if counting then "C\x00" else "Q\x00") ^ normq in
      let doc = d.S.name in
      match span "Query_cache.find" "query_cache" (fun _ -> Q.find c ~doc ~version ~query) with
      | Some v -> v
      | None ->
        let v = compute d in
        span "Query_cache.add" "query_cache" (fun _ -> Q.add c ~doc ~version ~query v);
        v)
  in
  let docs =
    match doc with
    | None -> S.live_docs snap
    | Some name -> (
      match S.find snap name with Some (_, d) -> [ d ] | None -> [])
  in
  let body =
    if counting then begin
      let per_doc =
        List.map (fun d -> (d.S.name, int_of_string (value d))) docs
      in
      let total = List.fold_left (fun a (_, n) -> a + n) 0 per_doc in
      match doc with
      | Some name ->
        Printf.sprintf "v=%d total=%d %s=%d" version total name total
      | None ->
        Printf.sprintf "v=%d total=%d %s" version total
          (capped_tokens (fun (n, c) -> Printf.sprintf "%s=%d" n c) per_doc)
    end
    else
      let per_doc =
        List.map
          (fun d ->
            match String.split_on_char ' ' (value d) with
            | n :: ids -> (d.S.name, int_of_string n, ids)
            | [] -> assert false)
          docs
        |> List.filter (fun (_, n, _) -> n > 0)
      in
      query_reply version per_doc
  in
  ignore
    (span "Protocol.response_to_string" "protocol" (fun _ ->
         P.response_to_string (P.Ok_ body)));
  body

(* ------------------------------------------------------------------ *)
(* Updates: apply, journal, publish                                      *)
(* ------------------------------------------------------------------ *)

type writer = { idx : int; r2 : R2.t; wal : Wal.writer; mutable seq : int }

(* Replay one acknowledged update as the commit pipeline does it for a
   batch of one: [Wal.apply] on the master, [Wal.append_batch] (one frame,
   one fsync), [Snapshot.advance].  Returns the new snapshot and the
   renumber record. *)
let update tr ~req snap w ~version op =
  let kind = "UPDATE" in
  span tr ~kind ~req "update" "service" @@ fun root ->
  let area, changed =
    span tr ~parent:root ~kind ~req "Wal.apply" "wal" (fun _ -> Wal.apply w.r2 op)
  in
  w.seq <- w.seq + 1;
  let record = { Wal.seq = w.seq; op; area; changed } in
  span tr ~parent:root ~kind ~req "Wal.append_batch" "wal.append" (fun _ ->
      Wal.append_batch w.wal [ record ]);
  let next, _areas =
    span tr ~parent:root ~kind ~req "Snapshot.advance" "snapshot" (fun _ ->
        S.advance snap ~version [ (w.idx, [ op ], version) ])
  in
  (next, area, changed)

(* ------------------------------------------------------------------ *)
(* Aggregation                                                          *)
(* ------------------------------------------------------------------ *)

(* Per-request sums of the self times of the spans named [names] (all
   names when empty) whose kind satisfies [kinds], in microseconds.
   [selfs] is {!Trace.self_times} of the run's spans. *)
let per_request selfs ?(names = []) kinds =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun ((s : Trace.span), self) ->
      if s.Trace.req <> 0 && s.Trace.layer <> replay_layer && kinds s.Trace.kind
         && (names = [] || List.mem s.Trace.name names)
      then
        Hashtbl.replace tbl s.Trace.req
          (Option.value ~default:0. (Hashtbl.find_opt tbl s.Trace.req)
          +. (self *. 1e6)))
    selfs;
  tbl

let values tbl = Array.of_seq (Hashtbl.to_seq_values tbl)

(* Self-time table: per request kind and layer, the median and p99 over
   requests of the layer's self time, and its total. *)
type row = { kind : string; layer : string; requests : int; p50_us : float;
             p99_us : float; total_ms : float }

let table selfs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun ((s : Trace.span), self) ->
      if s.Trace.req <> 0 && s.Trace.layer <> replay_layer then begin
        let key = (s.Trace.kind, s.Trace.layer) in
        let per =
          match Hashtbl.find_opt tbl key with
          | Some h -> h
          | None ->
            let h = Hashtbl.create 256 in
            Hashtbl.add tbl key h;
            h
        in
        Hashtbl.replace per s.Trace.req
          (Option.value ~default:0. (Hashtbl.find_opt per s.Trace.req)
          +. (self *. 1e6))
      end)
    selfs;
  Hashtbl.fold
    (fun (kind, layer) per acc ->
      let v = values per in
      { kind; layer; requests = Array.length v; p50_us = Pstats.median v;
        p99_us = (match Pstats.at_most v 0.99 with Some (_, x) -> x | None -> Pstats.maximum v);
        total_ms = Array.fold_left ( +. ) 0. v /. 1e3 }
      :: acc)
    tbl []
  |> List.sort compare
