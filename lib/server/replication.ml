module Wal = Rstorage.Wal

(* Chunks above this size are split; well under the 1 MiB frame cap even
   with the header line in front. *)
let max_chunk = 256 * 1024

(* Follower-initiated long-polls are bounded server-side: a follower that
   asks for an hour still gets its reply within this. *)
let max_wait_ms = 30_000

(* ------------------------------------------------------------------ *)
(* Fencing epochs                                                      *)
(* ------------------------------------------------------------------ *)

let epoch_path dir = Filename.concat dir "EPOCH"

let load_epoch dir =
  let path = epoch_path dir in
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    match int_of_string_opt (String.trim line) with
    | Some e when e >= 0 -> e
    | _ -> invalid_arg (Printf.sprintf "corrupt epoch file %s: %S" path line)
  end
  else 0

let store_epoch dir epoch =
  (* Atomic via temp + rename: a torn epoch file could otherwise lower a
     follower's fence across a restart. *)
  let path = epoch_path dir in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc (string_of_int epoch);
  output_char oc '\n';
  flush oc;
  (try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ());
  close_out oc;
  Unix.rename tmp path

(* ------------------------------------------------------------------ *)
(* Binary reply bodies                                                 *)
(* ------------------------------------------------------------------ *)

type chunk = {
  epoch : int;  (** fencing epoch the serving node is at *)
  gen : int;  (** live generation of the document's active journal *)
  size : int;  (** current total size of the addressed file *)
  data : string;  (** the raw bytes; [""] when nothing (yet) to ship *)
}

let encode_chunk c =
  Printf.sprintf "epoch=%d gen=%d size=%d len=%d\n%s" c.epoch c.gen c.size
    (String.length c.data) c.data

let decode_chunk body =
  match String.index_opt body '\n' with
  | None -> Error "chunk reply lacks a header line"
  | Some nl ->
    let header = String.sub body 0 nl in
    let data = String.sub body (nl + 1) (String.length body - nl - 1) in
    let field key =
      Option.to_result ~none:(Printf.sprintf "chunk header lacks %s=" key)
        (Client.kv_int header key)
    in
    Result.bind (field "epoch") (fun epoch ->
        Result.bind (field "gen") (fun gen ->
            Result.bind (field "size") (fun size ->
                Result.bind (field "len") (fun len ->
                    if len <> String.length data then
                      Error
                        (Printf.sprintf
                           "chunk header promises %d bytes, frame carries %d"
                           len (String.length data))
                    else Ok { epoch; gen; size; data }))))

(* ------------------------------------------------------------------ *)
(* REPL STATE bodies                                                   *)
(* ------------------------------------------------------------------ *)

type doc_state = { name : string; gen : int; seq : int; size : int }
type state = { s_epoch : int; s_version : int; s_docs : doc_state list }

(* Document names exclude '/' (enforced at Service.start), so it is a safe
   field separator inside the per-document word. *)
let encode_state s =
  Printf.sprintf "epoch=%d v=%d docs=%d%s" s.s_epoch s.s_version
    (List.length s.s_docs)
    (String.concat ""
       (List.map
          (fun d -> Printf.sprintf " %s/%d/%d/%d" d.name d.gen d.seq d.size)
          s.s_docs))

let decode_state body =
  let field key =
    Option.to_result ~none:(Printf.sprintf "STATE reply lacks %s=" key)
      (Client.kv_int body key)
  in
  Result.bind (field "epoch") (fun s_epoch ->
      Result.bind (field "v") (fun s_version ->
          Result.bind (field "docs") (fun n ->
              let words =
                String.split_on_char ' ' body
                |> List.filter (fun w -> String.contains w '/')
              in
              let parse w =
                match String.split_on_char '/' w with
                | [ name; gen; seq; size ] -> (
                  match
                    ( int_of_string_opt gen,
                      int_of_string_opt seq,
                      int_of_string_opt size )
                  with
                  | Some gen, Some seq, Some size ->
                    Ok { name; gen; seq; size }
                  | _ -> Error (Printf.sprintf "bad STATE document word %S" w))
                | _ -> Error (Printf.sprintf "bad STATE document word %S" w)
              in
              let rec all acc = function
                | [] -> Ok (List.rev acc)
                | w :: ws ->
                  Result.bind (parse w) (fun d -> all (d :: acc) ws)
              in
              Result.bind (all [] words) (fun s_docs ->
                  if List.length s_docs <> n then
                    Error
                      (Printf.sprintf
                         "STATE reply promises %d documents, carries %d" n
                         (List.length s_docs))
                  else Ok { s_epoch; s_version; s_docs }))))

(* ------------------------------------------------------------------ *)
(* Serving file bytes                                                  *)
(* ------------------------------------------------------------------ *)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* [offset, offset + limit) of the file, plus its current size.  The
   journal files this serves are append-only (the active segment) or
   immutable (checkpoints, archives), so a plain positional read is
   consistent; rotation replaces the active path by rename and deletes
   the previous generation's files, which callers exclude by reading
   under the lock the rotation (or a follower's install) holds. *)
let read_chunk path ~offset ~limit =
  let limit = max 0 (min limit max_chunk) in
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ("", 0)
  | fd ->
    Fun.protect ~finally:(fun () ->
        try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    let size = (Unix.fstat fd).Unix.st_size in
    if offset >= size || limit = 0 then ("", size)
    else begin
      ignore (Unix.lseek fd offset Unix.SEEK_SET);
      let want = min limit (size - offset) in
      let buf = Bytes.create want in
      let rec fill pos =
        if pos >= want then want
        else
          match Unix.read fd buf pos (want - pos) with
          | 0 -> pos
          | n -> fill (pos + n)
      in
      let got = fill 0 in
      (Bytes.sub_string buf 0 got, size)
    end

(* The on-disk path a [Protocol.repl_file] addresses, given the document's
   base file triple. *)
let resolve_path ~xml ~sidecar ~wal (file : Protocol.repl_file) =
  match file with
  | Protocol.Base_xml -> xml
  | Protocol.Base_sidecar -> sidecar
  | Protocol.Active_wal -> wal
  | Protocol.Ckpt_xml g -> fst (Wal.checkpoint_files wal g)
  | Protocol.Ckpt_sidecar g -> snd (Wal.checkpoint_files wal g)
  | Protocol.Segment g -> Wal.segment_archive wal g
