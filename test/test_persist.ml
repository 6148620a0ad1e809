module Dom = Rxml.Dom
module R2 = Ruid.Ruid2
module P = Ruid.Persist
module Shape = Rworkload.Shape
module Rng = Rworkload.Rng

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let build_doc seed n =
  let root =
    Shape.generate ~seed ~target:n (Shape.Uniform { fanout_lo = 0; fanout_hi = 4 })
  in
  (root, R2.number ~max_area_size:10 root)

let test_bytes_round_trip () =
  let root, r2 = build_doc 1 200 in
  let bytes = P.sidecar_to_bytes r2 in
  (* Restore against a structurally identical clone. *)
  let clone = Dom.clone root in
  let r2' = P.sidecar_of_bytes clone bytes in
  R2.check_consistency r2';
  Alcotest.(check int) "kappa preserved" (R2.kappa r2) (R2.kappa r2');
  Alcotest.(check int) "areas preserved" (R2.area_count r2) (R2.area_count r2');
  List.iter2
    (fun a b ->
      Alcotest.(check string) "identifiers preserved"
        (R2.id_to_string (R2.id_of_node r2 a))
        (R2.id_to_string (R2.id_of_node r2' b)))
    (Dom.preorder root) (Dom.preorder clone)

let test_file_round_trip () =
  let _root, r2 = build_doc 2 150 in
  let xml = tmp "ruid_test.xml" and sidecar = tmp "ruid_test.ruid" in
  P.save r2 ~xml ~sidecar;
  let _doc, r2' = P.load ~xml ~sidecar () in
  R2.check_consistency r2';
  Alcotest.(check int) "same node count"
    (List.length (R2.all_nodes r2))
    (List.length (R2.all_nodes r2'));
  (* Identifier streams coincide in document order. *)
  List.iter2
    (fun a b ->
      Alcotest.(check string) "ids equal"
        (R2.id_to_string (R2.id_of_node r2 a))
        (R2.id_to_string (R2.id_of_node r2' b)))
    (R2.all_nodes r2) (R2.all_nodes r2');
  Sys.remove xml;
  Sys.remove sidecar

let test_updates_after_load () =
  let root, r2 = build_doc 3 120 in
  let bytes = P.sidecar_to_bytes r2 in
  let clone = Dom.clone root in
  let r2' = P.sidecar_of_bytes clone bytes in
  let rng = Rng.create 6 in
  for _ = 1 to 20 do
    let parent = Shape.random_node rng clone in
    ignore
      (R2.insert_node r2' ~parent ~pos:(Rng.int rng (Dom.degree parent + 1))
         (Dom.element "post-load"))
  done;
  R2.check_consistency r2'

let test_garbage_rejected () =
  let root, r2 = build_doc 4 50 in
  ignore r2;
  (match P.sidecar_of_bytes root (Bytes.of_string "NOTRUID") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of bad magic");
  (* A sidecar from a different document must fail the consistency check. *)
  let other, other_r2 = build_doc 5 60 in
  ignore other;
  match P.sidecar_of_bytes root (P.sidecar_to_bytes other_r2) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of mismatched sidecar"

let test_whitespace_preserved () =
  (* Text nodes are numbered too; persistence must keep them so the
     identifier stream lines up. *)
  let doc = Rxml.Parser.parse_string ~keep_whitespace:true "<a> <b/> <c>x</c></a>" in
  let root = Dom.root_element doc in
  let r2 = R2.number ~max_area_size:4 root in
  let xml = tmp "ruid_ws.xml" and sidecar = tmp "ruid_ws.ruid" in
  P.save r2 ~xml ~sidecar;
  let _, r2' = P.load ~xml ~sidecar () in
  R2.check_consistency r2';
  Alcotest.(check int) "all nodes restored"
    (List.length (R2.all_nodes r2))
    (List.length (R2.all_nodes r2'));
  Sys.remove xml;
  Sys.remove sidecar

let prop_round_trip_random =
  Util.qtest ~count:25 "sidecars restore random documents"
    QCheck.(pair (int_range 2 200) (int_range 2 20))
    (fun (n, area) ->
      let root =
        Shape.generate ~seed:(n * 17 + area) ~target:n
          (Shape.Uniform { fanout_lo = 0; fanout_hi = 5 })
      in
      let r2 = R2.number ~max_area_size:area root in
      let clone = Dom.clone root in
      let r2' = P.sidecar_of_bytes clone (P.sidecar_to_bytes r2) in
      List.for_all2
        (fun a b ->
          R2.id_equal (R2.id_of_node r2 a) (R2.id_of_node r2' b))
        (Dom.preorder root) (Dom.preorder clone))

(* Regression: numbering rooted at the document node (the CLI's normal
   mode) must restore against the reparsed document node, not its root
   element. *)
let test_document_rooted_round_trip () =
  let doc =
    Rxml.Parser.parse_string ~keep_whitespace:true
      "<?xml version='1.0'?><!-- prolog --><a><b>x</b><c/></a>"
  in
  let r2 = R2.number ~max_area_size:3 doc in
  let xml = tmp "ruid_docroot.xml" and sidecar = tmp "ruid_docroot.ruid" in
  P.save r2 ~xml ~sidecar;
  let _doc2, r2' = P.load ~xml ~sidecar () in
  R2.check_consistency r2';
  Alcotest.(check int) "all nodes restored"
    (List.length (R2.all_nodes r2))
    (List.length (R2.all_nodes r2'));
  Sys.remove xml;
  Sys.remove sidecar

(* ---- formats: versioning, per-section checksums, atomic save ---- *)

let test_version_detection () =
  let _root, r2 = build_doc 6 80 in
  Alcotest.(check int) "writer emits v4" 4
    (P.version_of_bytes (P.sidecar_to_bytes r2));
  Alcotest.(check int) "legacy writer emits v3" 3
    (P.version_of_bytes (P.sidecar_to_bytes_v3 r2));
  Alcotest.(check int) "legacy writer emits v2" 2
    (P.version_of_bytes (P.sidecar_to_bytes_v2 r2));
  match P.version_of_bytes (Bytes.of_string "JUNKJUNK") with
  | _ -> Alcotest.fail "expected bad magic to be rejected"
  | exception Invalid_argument _ -> ()

let test_v2_compat () =
  let root, r2 = build_doc 7 120 in
  let restored f = P.sidecar_of_bytes (Dom.clone root) (f r2) in
  let v2 = restored P.sidecar_to_bytes_v2 and v3 = restored P.sidecar_to_bytes_v3
  and v4 = restored P.sidecar_to_bytes in
  R2.check_consistency v2;
  let ids t = List.map (R2.id_of_node t) (R2.all_nodes t) in
  Alcotest.(check bool) "v2, v3 and v4 restore the same numbering" true
    (ids v2 = ids v4 && ids v3 = ids v4 && ids r2 = ids v4)

let contains msg needle =
  let nl = String.length needle and ml = String.length msg in
  let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
  go 0

(* Walk a framed sidecar (magic, then per section: length varint |
   payload | CRC-32) to find each payload's extent. *)
let section_spans names bytes =
  let magic_len = 6 in
  let pos = ref magic_len in
  List.map
    (fun name ->
      let len, p = Ruid.Codec.read_varint bytes ~pos:!pos in
      let span = (name, p, len) in
      pos := p + len + 4;
      span)
    names

let test_section_errors_name_the_damage () =
  let root, r2 = build_doc 8 100 in
  List.iter
    (fun (bytes, names) ->
      List.iter
        (fun (name, start, len) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s section is non-empty" name)
            true (len > 0);
          let b = Bytes.copy bytes in
          (* Flip one bit in the middle of the section's payload. *)
          let target = start + (len / 2) in
          Bytes.set b target (Char.chr (Char.code (Bytes.get b target) lxor 0x10));
          match P.sidecar_of_bytes (Dom.clone root) b with
          | _ -> Alcotest.fail "corruption not detected"
          | exception Invalid_argument msg ->
            Alcotest.(check bool)
              (Printf.sprintf "error names the %s section: %s" name msg)
              true
              (contains msg (name ^ " section"));
            Alcotest.(check bool) "error carries a byte offset" true
              (contains msg "byte");
            Alcotest.(check bool) "error names the checksum" true
              (contains msg "checksum mismatch"))
        (section_spans names bytes))
    [
      (P.sidecar_to_bytes r2, [ "header"; "frame" ]);
      (P.sidecar_to_bytes_v3 r2, [ "header"; "ktable"; "ids" ]);
    ]

(* The frame fits any tree it describes the cut of; the header's node
   count and shape digest bind it to one.  Moving a leaf keeps the size
   and changes the shape. *)
let test_v4_other_shape_rejected () =
  let root, r2 = build_doc 10 150 in
  let bytes = P.sidecar_to_bytes r2 in
  let other = Dom.clone root in
  let leaf =
    List.find
      (fun n ->
        n.Dom.children = []
        && match n.Dom.parent with
           | Some p -> not (Dom.equal p other)
           | None -> false)
      (Dom.preorder other)
  in
  Dom.remove_child (Option.get leaf.Dom.parent) leaf;
  Dom.append_child other leaf;
  Alcotest.(check int) "same size" (Dom.size root) (Dom.size other);
  (match P.sidecar_of_bytes other bytes with
  | _ -> Alcotest.fail "a sidecar restored over another shape"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) ("names the shape digest: " ^ msg) true
      (contains msg "shape digest" && contains msg "header section"));
  let smaller = Dom.clone root in
  Dom.remove_child smaller (List.nth smaller.Dom.children (Dom.degree smaller - 1));
  match P.sidecar_of_bytes smaller bytes with
  | _ -> Alcotest.fail "a sidecar restored over a smaller tree"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) ("names the node count: " ^ msg) true
      (contains msg "node count")

(* The v4 writer reads the shape digest's subtree sizes off the order
   index; after updates, before any compaction, its keys are no longer
   positions, and the sizes must still be the tree's. *)
let test_v4_after_updates () =
  let root, r2 = build_doc 11 300 in
  let rng = Rng.create 11 in
  for i = 1 to 30 do
    let nodes = R2.all_nodes r2 in
    let pick () = List.nth nodes (Rng.int rng (List.length nodes)) in
    if i mod 3 = 0 then begin
      let victim = pick () in
      if not (Dom.equal victim root) then ignore (R2.delete_subtree r2 victim)
    end
    else
      let parent = pick () in
      ignore
        (R2.insert_node r2 ~parent ~pos:(Rng.int rng (Dom.degree parent + 1))
           (Dom.element "edit"))
  done;
  let o = R2.order r2 in
  Alcotest.(check bool) "index carries edits" true (Ruid.Order_index.edits o > 0);
  let pre = Ruid.Order_index.preorder (R2.root r2) in
  let sizes = ref [] in
  Ruid.Order_index.iter_sizes (fun s -> sizes := s :: !sizes) o;
  Alcotest.(check (list int)) "subtree sizes"
    (List.init (Array.length pre.nodes) (fun i -> pre.last.(i) - i + 1))
    (List.rev !sizes);
  let clone = Dom.clone (R2.root r2) in
  let r2' = P.sidecar_of_bytes clone (P.sidecar_to_bytes r2) in
  List.iter2
    (fun a b ->
      Alcotest.(check string) "identifiers preserved"
        (R2.id_to_string (R2.id_of_node r2 a))
        (R2.id_to_string (R2.id_of_node r2' b)))
    (R2.all_nodes r2) (R2.all_nodes r2')

let test_atomic_save () =
  let root, r2 = build_doc 9 90 in
  let xml = tmp "ruid_atomic.xml" and sidecar = tmp "ruid_atomic.ruid" in
  P.save r2 ~xml ~sidecar;
  let before = List.length (R2.all_nodes r2) in
  (* Mutate the numbering, then crash every subsequent write mid-file. *)
  ignore
    (R2.insert_node r2 ~parent:root ~pos:0 (Dom.element "casualty"));
  let p = Rstorage.Fault.plan ~seed:10 ~p_short_write:1.0 () in
  (match P.save ~vfs:(Rstorage.Fault.wrap p Ruid.Vfs.real) r2 ~xml ~sidecar with
  | () -> Alcotest.fail "expected the injected crash"
  | exception Ruid.Vfs.Crash _ -> ());
  (* The published files are untouched: the torn write only ever hit the
     temporary file, so the old snapshot still loads cleanly. *)
  let _doc, r2' = P.load ~xml ~sidecar () in
  R2.check_consistency r2';
  Alcotest.(check int) "pre-crash snapshot intact" before
    (List.length (R2.all_nodes r2'));
  Sys.remove xml;
  Sys.remove sidecar

(* ---- golden numbering bytes ---- *)

(* Length and CRC-32 of the sidecars and the XML [save] writes, for
   fixed-seed documents numbered at several area sizes — several of them
   cut with the Section 2.3 promotion — plus a document-rooted numbering
   and one after 200 seeded inserts and deletes.  Any change to the cut,
   the frame or area enumeration, K or a file format shows here.  The v3
   values, which spell out every identifier, were computed with the
   tree-walking construction that the linear-pass kernel replaced. *)
let golden_docs =
  [
    ("xmark-2k", fun () -> Rworkload.Xmark.generate ~seed:7 ~scale:0.5);
    ("xmark-33k", fun () -> Rworkload.Xmark.generate ~seed:7 ~scale:8.0);
    ("dblp", fun () -> Rworkload.Dblp.generate ~seed:7 ~publications:400);
    ( "uniform",
      fun () ->
        Shape.generate ~seed:7 ~target:1500
          (Shape.Uniform { fanout_lo = 0; fanout_hi = 5 }) );
    ( "skewed",
      fun () ->
        Shape.generate ~seed:7 ~target:1500
          (Shape.Skewed { max_fanout = 60; s = 1.1 }) );
    ( "deep",
      fun () ->
        Shape.generate ~seed:7 ~target:1500 (Shape.Deep { fanout = 3; bias = 0.8 }) );
  ]

(* Per case: the v3 sidecar (through the legacy writer, so these pin the
   identifiers), the v4 sidecar and the XML. *)
let golden =
  [
    ("xmark-2k", 4, (13488, 0xbb532d0b), (2534, 0xe6f8806a), (43818, 0x3fc5e857));
    ("xmark-2k", 8, (11177, 0x9575b95b), (1403, 0x5c40de8d), (43818, 0x3fc5e857));
    ("xmark-2k", 64, (10307, 0x46ee75bc), (635, 0xc9e756e1), (43818, 0x3fc5e857));
    ("xmark-33k", 4, (298611, 0x76f74768), (40211, 0x3f090f8e), (681998, 0x7a8384b1));
    ("xmark-33k", 8, (241795, 0x49e7c055), (23071, 0x9177e0a6), (681998, 0x7a8384b1));
    ("xmark-33k", 64, (215371, 0x300f685d), (16720, 0x69f33c49), (681998, 0x7a8384b1));
    ("dblp", 4, (32154, 0x1426a20d), (6840, 0x10b7eefb), (69562, 0x6b34cc55));
    ("dblp", 8, (26290, 0xb05e3d13), (4440, 0x8245ab80), (69562, 0x6b34cc55));
    ("dblp", 64, (19654, 0x975f8528), (1488, 0x3d5b745b), (69562, 0x6b34cc55));
    ("uniform", 4, (9235, 0xee83ea01), (2309, 0xa59c4421), (9680, 0x69d6050e));
    ("uniform", 8, (7856, 0x42c418e9), (1454, 0x2488c554), (9680, 0x69d6050e));
    ("uniform", 64, (5969, 0x7aad8c22), (332, 0xb8d3200a), (9680, 0x69d6050e));
    ("skewed", 4, (12911, 0xf91871dd), (3662, 0xd9e3d2d1), (8307, 0x139395d5));
    ("skewed", 8, (11698, 0xbcdadd2f), (3047, 0x7d7bd725), (8307, 0x139395d5));
    ("skewed", 64, (6412, 0x9985e12e), (392, 0x14aabc2d), (8307, 0x139395d5));
    ("deep", 4, (10764, 0xff3b041a), (1385, 0x849b91fc), (13285, 0x97aa2ad0));
    ("deep", 8, (8488, 0xff3adacb), (857, 0xea4dc379), (13285, 0x97aa2ad0));
    ("deep", 64, (7182, 0x0e9337bb), (461, 0x51bcd5dc), (13285, 0x97aa2ad0));
  ]

let digest b = (Bytes.length b, Ruid.Crc32.bytes b ~pos:0 ~len:(Bytes.length b))

(* Each v4 sidecar must also restore to the numbering it was written
   from. *)
let check_golden what r2 (v3, v4, xml) =
  Alcotest.(check (pair int int)) (what ^ ": v3 sidecar") v3
    (digest (P.sidecar_to_bytes_v3 r2));
  let bytes = P.sidecar_to_bytes r2 in
  Alcotest.(check (pair int int)) (what ^ ": v4 sidecar") v4 (digest bytes);
  Alcotest.(check (pair int int)) (what ^ ": xml") xml (digest (P.xml_to_bytes r2));
  let back = P.sidecar_of_bytes (Dom.clone (R2.root r2)) bytes in
  Alcotest.(check (pair int int)) (what ^ ": v4 restores the identifiers") v3
    (digest (P.sidecar_to_bytes_v3 back))

let test_golden_bytes () =
  List.iter
    (fun (name, area, v3, v4, xml) ->
      let root = (List.assoc name golden_docs) () in
      check_golden
        (Printf.sprintf "%s at area size %d" name area)
        (R2.number ~max_area_size:area root)
        (v3, v4, xml))
    golden;
  (* the cut of at least one case goes through the promotion loop *)
  let promotes (name, area, _, _, _) =
    let root = (List.assoc name golden_docs) () in
    Ruid.Frame.area_count (Ruid.Frame.partition ~max_area_size:area root)
    <> Ruid.Frame.area_count
         (Ruid.Frame.partition ~max_area_size:area ~adjust:false root)
  in
  Alcotest.(check bool) "some case promotes" true (List.exists promotes golden);
  let doc =
    Rxml.Parser.parse_string ~keep_whitespace:true
      (Rxml.Serializer.to_string (Rworkload.Xmark.generate ~seed:7 ~scale:0.5))
  in
  check_golden "document-rooted xmark-2k" (R2.number doc)
    ((10403, 0xd173e6e5), (650, 0x5dab8c8f), (43818, 0x3fc5e857));
  let root = Rworkload.Xmark.generate ~seed:7 ~scale:0.5 in
  let r2 = R2.number ~max_area_size:8 root in
  List.iter
    (fun op ->
      ignore
        (Rworkload.Updates.apply (R2.root r2)
           ~insert:(fun ~parent ~pos n -> R2.insert_node r2 ~parent ~pos n)
           ~delete:(fun n -> R2.delete_subtree r2 n)
           op))
    (Rworkload.Updates.script ~seed:7 ~ops:200 root);
  check_golden "xmark-2k after 200 inserts and deletes" r2
    ((10560, 0xc71297d2), (1289, 0x3c22228d), (39488, 0xce8d3989))

let suite =
  [
    Alcotest.test_case "bytes round trip" `Quick test_bytes_round_trip;
    Alcotest.test_case "version detection" `Quick test_version_detection;
    Alcotest.test_case "v2 sidecars still load" `Quick test_v2_compat;
    Alcotest.test_case "per-section corruption reporting" `Quick
      test_section_errors_name_the_damage;
    Alcotest.test_case "atomic save survives torn writes" `Quick
      test_atomic_save;
    Alcotest.test_case "document-rooted round trip" `Quick test_document_rooted_round_trip;
    prop_round_trip_random;
    Alcotest.test_case "file round trip" `Quick test_file_round_trip;
    Alcotest.test_case "updates after load" `Quick test_updates_after_load;
    Alcotest.test_case "garbage rejected" `Quick test_garbage_rejected;
    Alcotest.test_case "whitespace-bearing documents" `Quick test_whitespace_preserved;
    Alcotest.test_case "golden numbering bytes" `Quick test_golden_bytes;
    Alcotest.test_case "v4 rejected over another shape of the same size" `Quick
      test_v4_other_shape_rejected;
    Alcotest.test_case "v4 sidecar of an updated numbering" `Quick
      test_v4_after_updates;
  ]
