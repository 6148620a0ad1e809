(* In-memory spans around the benchmark's calls into each layer.

   A span names the layer whose public function it wraps, the request kind
   it served and the request it belongs to; [parent] links it to the span
   that caused it (0 = a request's root).  Spans are only appended while a
   run is traced and are written out when the benchmark ends, so tracing
   costs two clock reads and one record per call. *)

type span = {
  id : int;
  parent : int;
  name : string;  (** the wrapped function, e.g. "Protocol.write_frame" *)
  layer : string;  (** the layer metric prefix, e.g. "protocol" *)
  kind : string;  (** request kind, e.g. "COUNTD" *)
  req : int;  (** request id, shared by every span of one request *)
  t0 : float;
  t1 : float;
}

type t = { mutable spans : span list; mutable next : int; mu : Mutex.t }

let create () = { spans = []; next = 1; mu = Mutex.create () }

let fresh_id t =
  Mutex.lock t.mu;
  let id = t.next in
  t.next <- id + 1;
  Mutex.unlock t.mu;
  id

let add t s =
  Mutex.lock t.mu;
  t.spans <- s :: t.spans;
  Mutex.unlock t.mu

let spans t = List.rev t.spans

(* [with_span t ~parent ~name ~layer ~kind ~req f] runs [f id] inside a
   fresh span [id] (children pass [id] as their parent). *)
let with_span t ?(parent = 0) ~name ~layer ~kind ~req f =
  let id = fresh_id t in
  let t0 = Unix.gettimeofday () in
  let finish () =
    add t { id; parent; name; layer; kind; req; t0; t1 = Unix.gettimeofday () }
  in
  match f id with
  | v -> finish (); v
  | exception e -> finish (); raise e

(* Length of the union of intervals, each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* Self time of every span: its duration minus the part of it that its
   children cover.  Overlapping children are counted once; a child that
   outlives its parent only counts inside the parent's interval. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then Hashtbl.add children s.parent (s.t0, s.t1))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.t1 -. s.t0 -. covered ~lo:s.t0 ~hi:s.t1 kids))
    spans

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* One JSON object per line. *)
let write_jsonl path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%s,\"layer\":%s,\"kind\":%s,\
         \"req\":%d,\"start\":%.6f,\"end\":%.6f}\n"
        s.id s.parent (json_string s.name) (json_string s.layer)
        (json_string s.kind) s.req s.t0 s.t1)
    spans;
  close_out oc
