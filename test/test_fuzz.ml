(* Failure injection: decoders and parsers must reject garbage with their
   documented exceptions, never crash or loop. *)

module Rng = Rworkload.Rng

let random_bytes rng n =
  Bytes.init n (fun _ -> Char.chr (Rng.int rng 256))

let test_parser_fuzz () =
  let rng = Rng.create 1 in
  for _ = 1 to 500 do
    let src = Bytes.to_string (random_bytes rng (Rng.int_in rng 0 80)) in
    match Rxml.Parser.parse_string src with
    | _ -> () (* the rare accidental well-formed input is fine *)
    | exception Rxml.Parser.Parse_error _ -> ()
  done

let test_parser_mutation_fuzz () =
  (* Mutate a valid document: every outcome must be parse or clean error. *)
  let base = Rxml.Serializer.to_string (Rworkload.Xmark.generate ~seed:2 ~scale:0.05) in
  let rng = Rng.create 3 in
  for _ = 1 to 300 do
    let b = Bytes.of_string base in
    for _ = 1 to Rng.int_in rng 1 4 do
      Bytes.set b (Rng.int rng (Bytes.length b)) (Char.chr (Rng.int rng 256))
    done;
    match Rxml.Parser.parse_string (Bytes.to_string b) with
    | _ -> ()
    | exception Rxml.Parser.Parse_error _ -> ()
  done

let test_sax_fuzz () =
  let rng = Rng.create 5 in
  for _ = 1 to 500 do
    let src = Bytes.to_string (random_bytes rng (Rng.int_in rng 0 60)) in
    match Rxml.Sax.iter src ~f:(fun _ -> ()) with
    | () -> ()
    | exception Rxml.Parser.Parse_error _ -> ()
  done

let test_codec_fuzz () =
  let rng = Rng.create 7 in
  for _ = 1 to 500 do
    let b = random_bytes rng (Rng.int_in rng 0 20) in
    (match Ruid.Codec.decode_ruid2 b with
    | _ -> ()
    | exception Invalid_argument _ -> ());
    match Ruid.Codec.decode_mruid b with
    | _ -> ()
    | exception Invalid_argument _ -> ()
  done

let test_sidecar_fuzz () =
  let root =
    Rworkload.Shape.generate ~seed:9 ~target:50
      (Rworkload.Shape.Uniform { fanout_lo = 1; fanout_hi = 3 })
  in
  let rng = Rng.create 11 in
  (* Random garbage. *)
  for _ = 1 to 200 do
    let b = random_bytes rng (Rng.int_in rng 0 40) in
    match Ruid.Persist.sidecar_of_bytes root b with
    | _ -> ()
    | exception Invalid_argument _ -> ()
  done;
  (* Mutated valid sidecars. *)
  let r2 = Ruid.Ruid2.number ~max_area_size:8 root in
  let valid = Ruid.Persist.sidecar_to_bytes r2 in
  for _ = 1 to 200 do
    let b = Bytes.copy valid in
    Bytes.set b (Rng.int rng (Bytes.length b)) (Char.chr (Rng.int rng 256));
    match Ruid.Persist.sidecar_of_bytes (Rxml.Dom.clone root) b with
    | _ -> () (* mutation may land in padding-insensitive spots *)
    | exception Invalid_argument _ -> ()
    | exception Not_found -> Alcotest.fail "leaked Not_found"
  done

(* Sidecars past the checksum: valid v2 or re-framed v3 bytes (correct
   CRCs) whose identifiers, K rows or kappa are perturbed.  Restore must
   reject each with Invalid_argument or return a numbering that passes
   the deep checker; any other outcome fails. *)
let encode_sidecar ~version ~kappa ~rows ~ids =
  let module C = Ruid.Codec in
  let header = Buffer.create 8 and ktable = Buffer.create 64
  and idb = Buffer.create 256 in
  C.write_varint header 0;
  C.write_varint header kappa;
  C.write_varint ktable (List.length rows);
  List.iter
    (fun (g, l, f) ->
      C.write_varint ktable g;
      C.write_varint ktable l;
      C.write_varint ktable f)
    rows;
  C.write_varint idb (Array.length ids);
  Array.iter
    (fun (flag, g, l) ->
      C.write_varint idb flag;
      C.write_varint idb g;
      C.write_varint idb l)
    ids;
  let out = Buffer.create 512 in
  Buffer.add_string out (if version = 2 then "RUID2\x02" else "RUID2\x03");
  List.iter
    (fun b ->
      let s = Buffer.contents b in
      if version = 2 then Buffer.add_string out s
      else begin
        C.write_varint out (String.length s);
        Buffer.add_string out s;
        let crc = Ruid.Crc32.string s in
        for i = 0 to 3 do
          Buffer.add_char out (Char.chr ((crc lsr (8 * i)) land 0xFF))
        done
      end)
    [ header; ktable; idb ];
  Buffer.to_bytes out

(* A seeded document and its numbering, the first draws of [rng]. *)
let perturbable seed rng =
  let module R2 = Ruid.Ruid2 in
  let profile =
    if seed mod 2 = 0 then
      Rworkload.Shape.Uniform { fanout_lo = 0; fanout_hi = 4 }
    else Rworkload.Shape.Deep { fanout = 3; bias = 0.6 }
  in
  let root =
    Rworkload.Shape.generate ~seed ~target:(Rng.int_in rng 10 120) profile
  in
  let r2 = R2.number ~max_area_size:(Rng.int_in rng 3 10) root in
  (* a few updates leave K fan-out slack and gaps in the area globals *)
  if seed mod 3 = 0 then
    List.iter
      (fun op ->
        ignore
          (Rworkload.Updates.apply (R2.root r2)
             ~insert:(fun ~parent ~pos n -> R2.insert_node ~slack:1 r2 ~parent ~pos n)
             ~delete:(fun n -> R2.delete_subtree r2 n)
             op))
      (Rworkload.Updates.script ~seed ~ops:8 (R2.root r2));
  r2

let perturbed_sidecar seed =
  let module R2 = Ruid.Ruid2 in
  let rng = Rng.create seed in
  let r2 = perturbable seed rng in
  let root = R2.root r2 in
  let nodes = Array.of_list (Rxml.Dom.preorder root) in
  let ids =
    Array.map
      (fun n ->
        let i = R2.id_of_node r2 n in
        ((if i.R2.is_root then 1 else 0), i.R2.global, i.R2.local))
      nodes
  in
  let rows =
    Array.of_list
      (List.map
         (fun r -> Ruid.Ktable.(r.global, r.root_local, r.fanout))
         (Ruid.Ktable.rows (R2.ktable r2)))
  in
  let kappa = ref (R2.kappa r2) in
  let n = Array.length ids in
  let near v = max 1 (Rng.int_in rng (max 0 (v - 2)) (v + 2)) in
  let kind = Rng.int rng 6 in
  (match kind with
  | 0 ->
    (* an identifier's global or local changed, or both *)
    let i = Rng.int rng n in
    let f, g, l = ids.(i) in
    ids.(i) <-
      (match Rng.int rng 3 with
      | 0 -> (f, near g, l)
      | 1 -> (f, g, near l)
      | _ -> (f, Rng.int_in rng 0 (2 * g + 2), Rng.int_in rng 0 (2 * l + 2)))
  | 1 ->
    (* two identifiers swapped *)
    let i = Rng.int rng n and j = Rng.int rng n in
    let x = ids.(i) in
    ids.(i) <- ids.(j);
    ids.(j) <- x
  | 2 ->
    (* a root flag flipped *)
    let i = Rng.int rng n in
    let f, g, l = ids.(i) in
    ids.(i) <- (1 - f, g, l)
  | 3 -> (
    (* a fan-out lowered below the degree of a node it enumerates *)
    let wide =
      List.filter (fun j -> Rxml.Dom.degree nodes.(j) >= 2) (List.init n Fun.id)
    in
    match wide with
    | [] -> ()
    | _ ->
      let j = List.nth wide (Rng.int rng (List.length wide)) in
      let _, g, _ = ids.(j) in
      Array.iteri
        (fun r (rg, rl, _) ->
          if rg = g then
            rows.(r) <-
              (rg, rl, Rng.int_in rng 1 (Rxml.Dom.degree nodes.(j) - 1)))
        rows)
  | 4 ->
    (* one K field changed *)
    let r = Rng.int rng (Array.length rows) in
    let g, l, f = rows.(r) in
    rows.(r) <-
      (match Rng.int rng 3 with
      | 0 -> (near g, l, f)
      | 1 -> (g, near l, f)
      | _ -> (g, l, near f))
  | _ -> kappa := near !kappa);
  (root, encode_sidecar ~version:(2 + (seed mod 2)) ~kappa:!kappa
           ~rows:(Array.to_list rows) ~ids)

(* The same past the checksum for v4, whose frame section stores only
   what the identifiers are a function of: per area after the first, the
   preorder distance from the previous area root, the frame slot and the
   K fan-out.  The encoder and the shape digest are written out here,
   independently of Persist. *)
let varints xs =
  let b = Buffer.create 64 in
  List.iter (Ruid.Codec.write_varint b) xs;
  b

let encode_v4 ~kappa ~count ~digest ~fan0 ~areas =
  let header = varints [ 0; kappa; count ] in
  for i = 0 to 3 do
    Buffer.add_char header (Char.chr ((digest lsr (8 * i)) land 0xFF))
  done;
  let frame =
    varints (fan0 :: List.concat_map (fun (gap, slot, f) -> [ gap; slot; f ]) areas)
  in
  let out = Buffer.create 256 in
  Buffer.add_string out "RUID2\x04";
  List.iter
    (fun b ->
      let s = Buffer.contents b in
      Ruid.Codec.write_varint out (String.length s);
      Buffer.add_string out s;
      let crc = Ruid.Crc32.string s in
      for i = 0 to 3 do
        Buffer.add_char out (Char.chr ((crc lsr (8 * i)) land 0xFF))
      done)
    [ header; frame ];
  Buffer.to_bytes out

(* CRC-32 of the preorder subtree sizes, as varints. *)
let shape_digest root =
  let b = Buffer.create 256 in
  let rec go n =
    Ruid.Codec.write_varint b (Rxml.Dom.size n);
    List.iter go n.Rxml.Dom.children
  in
  go root;
  Ruid.Crc32.string (Buffer.contents b)

(* The frame of a numbering, as a v4 writer would store it. *)
let frame_of r2 =
  let module R2 = Ruid.Ruid2 in
  let kappa = R2.kappa r2 and kt = R2.ktable r2 in
  let ids = List.map (R2.id_of_node r2) (Rxml.Dom.preorder (R2.root r2)) in
  let areas = ref [] and prev = ref 0 in
  List.iteri
    (fun at (i : R2.id) ->
      if i.is_root && at > 0 then begin
        areas :=
          (at - !prev, (i.global - 2) mod kappa, Ruid.Ktable.fanout kt i.global)
          :: !areas;
        prev := at
      end)
    ids;
  (Ruid.Ktable.fanout kt 1, List.rev !areas)

let perturbed_v4_sidecar seed =
  let module R2 = Ruid.Ruid2 in
  let rng = Rng.create (seed + 7919) in
  let r2 = perturbable seed rng in
  let root = R2.root r2 in
  let fan0, areas = frame_of r2 in
  let areas = Array.of_list areas in
  let kappa = ref (R2.kappa r2) and count = ref (Rxml.Dom.size root)
  and fan0 = ref fan0 in
  let near v = max 0 (Rng.int_in rng (max 0 (v - 2)) (v + 2)) in
  let nudge i f = areas.(i) <- f areas.(i) in
  let m = Array.length areas in
  let before i = List.filteri (fun j _ -> j < i) (Array.to_list areas)
  and after i = List.filteri (fun j _ -> j > i) (Array.to_list areas) in
  let areas =
    match Rng.int rng 7 with
    | 0 when m > 0 -> nudge (Rng.int rng m) (fun (g, s, f) -> (near g, s, f)); areas
    | 1 when m > 0 -> nudge (Rng.int rng m) (fun (g, s, f) -> (g, near s, f)); areas
    | 2 when m > 0 -> nudge (Rng.int rng m) (fun (g, s, f) -> (g, s, near f)); areas
    | 2 -> fan0 := near !fan0; areas
    | 3 when m > 0 ->
      (* an area dropped; the next one takes over its distance or not *)
      let i = Rng.int rng m in
      let dg, _, _ = areas.(i) in
      let rest =
        match after i with
        | (g, s, f) :: tl when Rng.bool rng -> (g + dg, s, f) :: tl
        | tl -> tl
      in
      Array.of_list (before i @ rest)
    | 4 ->
      (* an area added *)
      let i = Rng.int rng (m + 1) in
      let extra = (Rng.int_in rng 1 4, Rng.int rng (!kappa + 1), Rng.int_in rng 1 5) in
      Array.of_list (before i @ (extra :: List.filteri (fun j _ -> j >= i) (Array.to_list areas)))
    | 5 -> kappa := near !kappa; areas
    | _ -> count := near !count; areas
  in
  ( root,
    encode_v4 ~kappa:!kappa ~count:!count ~digest:(shape_digest root) ~fan0:!fan0
      ~areas:(Array.to_list areas) )

let prop_sidecar_perturbations =
  Util.qtest ~count:400 "sidecar perturbations past the checksum"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      List.for_all
        (fun (version, (root, bytes)) ->
          match Ruid.Persist.sidecar_of_bytes (Rxml.Dom.clone root) bytes with
          | exception Invalid_argument _ -> true
          | r2 -> (
            match Ruid.Ruid2.check r2 with
            | () -> true
            | exception Failure msg ->
              QCheck.Test.fail_reportf "seed %d (%s): accepted, but check fails: %s"
                seed version msg))
        [ ("v2/v3", perturbed_sidecar seed); ("v4", perturbed_v4_sidecar seed) ])

(* A zero fan-out or kappa cannot come from a writer; restore must still
   reject it as malformed input rather than divide by it. *)
let test_sidecar_zero_fanout () =
  let module R2 = Ruid.Ruid2 in
  let root =
    Rworkload.Shape.generate ~seed:3 ~target:60
      (Rworkload.Shape.Uniform { fanout_lo = 1; fanout_hi = 3 })
  in
  let r2 = R2.number ~max_area_size:6 root in
  let ids =
    Array.of_list
      (List.map
         (fun n ->
           let i = R2.id_of_node r2 n in
           ((if i.R2.is_root then 1 else 0), i.R2.global, i.R2.local))
         (Rxml.Dom.preorder root))
  in
  let rows =
    List.map
      (fun r -> Ruid.Ktable.(r.global, r.root_local, r.fanout))
      (Ruid.Ktable.rows (R2.ktable r2))
  in
  let rejects what ~kappa ~rows =
    List.iter
      (fun version ->
        match
          Ruid.Persist.sidecar_of_bytes (Rxml.Dom.clone root)
            (encode_sidecar ~version ~kappa ~rows ~ids)
        with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.failf "%s (v%d) accepted" what version)
      [ 2; 3 ]
  in
  List.iter
    (fun (g, _, _) ->
      rejects
        (Printf.sprintf "fan-out 0 in area %d" g)
        ~kappa:(R2.kappa r2)
        ~rows:(List.map (fun (g', l, f) -> (g', l, if g' = g then 0 else f)) rows))
    rows;
  rejects "kappa 0" ~kappa:0 ~rows;
  let fan0, areas = frame_of r2 in
  let rejects_v4 what ~kappa ~fan0 ~areas =
    match
      Ruid.Persist.sidecar_of_bytes (Rxml.Dom.clone root)
        (encode_v4 ~kappa ~count:(Rxml.Dom.size root) ~digest:(shape_digest root)
           ~fan0 ~areas)
    with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s (v4) accepted" what
  in
  let kappa = R2.kappa r2 in
  rejects_v4 "fan-out 0 in area 1" ~kappa ~fan0:0 ~areas;
  List.iteri
    (fun i _ ->
      rejects_v4
        (Printf.sprintf "fan-out 0 in area %d" (i + 2))
        ~kappa ~fan0
        ~areas:(List.mapi (fun j (g, s, f) -> (g, s, if i = j then 0 else f)) areas))
    areas;
  rejects_v4 "kappa 0" ~kappa:0 ~fan0 ~areas;
  (* the unperturbed frame restores *)
  match
    Ruid.Persist.sidecar_of_bytes (Rxml.Dom.clone root)
      (encode_v4 ~kappa ~count:(Rxml.Dom.size root) ~digest:(shape_digest root)
         ~fan0 ~areas)
  with
  | back -> R2.check back
  | exception Invalid_argument msg -> Alcotest.failf "valid v4 frame rejected: %s" msg

(* QCheck-driven hardening: on ANY byte string the parser returns a tree or
   raises its one documented exception — Failure / Invalid_argument /
   Stack_overflow all fail the property (qcheck reports unexpected
   exceptions as failures). *)
let prop_parser_total =
  Util.qtest ~count:500 "parser total on arbitrary byte strings"
    QCheck.(string_gen_of_size Gen.(0 -- 300) Gen.char)
    (fun src ->
      match Rxml.Parser.parse_string src with
      | _ -> true
      | exception Rxml.Parser.Parse_error _ -> true)

let prop_parser_mutations_total =
  let base =
    Rxml.Serializer.to_string (Rworkload.Xmark.generate ~seed:21 ~scale:0.05)
  in
  Util.qtest ~count:300 "parser total on mutated valid documents"
    QCheck.(small_list (pair small_nat (map Char.chr (int_range 0 255))))
    (fun muts ->
      let b = Bytes.of_string base in
      List.iter
        (fun (pos, c) -> Bytes.set b (pos mod Bytes.length b) c)
        muts;
      match Rxml.Parser.parse_string (Bytes.to_string b) with
      | _ -> true
      | exception Rxml.Parser.Parse_error _ -> true)

let test_parser_depth_bomb () =
  (* A million-deep open-tag chain must hit the depth budget with a clean
     Parse_error, never Stack_overflow. *)
  let bomb = String.concat "" (List.init 200_000 (fun _ -> "<a>")) in
  (match Rxml.Parser.parse_string bomb with
  | _ -> Alcotest.fail "depth bomb accepted"
  | exception Rxml.Parser.Parse_error e ->
    Alcotest.(check bool) "names the depth limit" true
      (String.length e.Rxml.Parser.message > 0));
  (* And a balanced document well inside the budget still parses. *)
  let deep n =
    String.concat ""
      (List.init n (fun _ -> "<a>") @ [ "x" ] @ List.init n (fun _ -> "</a>"))
  in
  let doc = Rxml.Parser.parse_string (deep 5_000) in
  Alcotest.(check int) "deep but legal document parses" (5_000 + 2)
    (Rxml.Dom.size doc);
  (* An explicit budget is honoured. *)
  match Rxml.Parser.parse_string ~max_depth:10 (deep 11) with
  | _ -> Alcotest.fail "max_depth not enforced"
  | exception Rxml.Parser.Parse_error _ -> ()

let test_xpath_fuzz () =
  let rng = Rng.create 13 in
  let chars = "ab/[]@*().|'\"<>=0123 :" in
  for _ = 1 to 800 do
    let n = Rng.int_in rng 1 25 in
    let src = String.init n (fun _ -> chars.[Rng.int rng (String.length chars)]) in
    match Rxpath.Xparser.parse_union src with
    | _ -> ()
    | exception Rxpath.Xparser.Syntax_error _ -> ()
  done

let suite =
  [
    Alcotest.test_case "parser random bytes" `Quick test_parser_fuzz;
    Alcotest.test_case "parser mutations" `Quick test_parser_mutation_fuzz;
    prop_parser_total;
    prop_parser_mutations_total;
    Alcotest.test_case "parser depth bomb" `Quick test_parser_depth_bomb;
    Alcotest.test_case "sax random bytes" `Quick test_sax_fuzz;
    Alcotest.test_case "codec random bytes" `Quick test_codec_fuzz;
    Alcotest.test_case "sidecar garbage and mutations" `Quick test_sidecar_fuzz;
    prop_sidecar_perturbations;
    Alcotest.test_case "sidecar with a zero fan-out or kappa" `Quick
      test_sidecar_zero_fanout;
    Alcotest.test_case "xpath random strings" `Quick test_xpath_fuzz;
  ]
