(* Streaming build ≡ DOM round-trip: the single-pass chunked-SAX ingest
   (Stream_build) must produce byte-identical persistence artifacts and the
   same Doc_index geometry as reading the text, parsing a DOM and
   numbering it — over random document shapes, every chunking of the feed,
   both numbering roots, and explicit cut parameters. *)

module Dom = Rxml.Dom
module Sax = Rxml.Sax
module R2 = Ruid.Ruid2
module SB = Ruid.Stream_build
module Persist = Ruid.Persist
module Shape = Rworkload.Shape

(* A channel-less chunked source: hands the string out in slices of the
   seeded sizes (cycled), exercising token splits at refill boundaries. *)
let chopped_source src sizes =
  let sent = ref 0 and i = ref 0 in
  Sax.source_of_refill ~chunk:16 (fun buf off len ->
      if !sent >= String.length src then 0
      else begin
        let want = max 1 (List.nth sizes (!i mod List.length sizes)) in
        incr i;
        let n = min (min len want) (String.length src - !sent) in
        Bytes.blit_string src !sent buf off n;
        sent := !sent + n;
        n
      end)

let dom_build ?(parser = `Parser) ~at src =
  (* [`Parser] is the ruidtool file path; [`Sax] the legacy server ingest
     path (Sax.build_dom on the full string).  They differ only on CDATA
     adjacent to character data, which Sax coalesces into one text node. *)
  let doc =
    match parser with
    | `Parser -> Rxml.Parser.parse_string src
    | `Sax -> Sax.build_dom src
  in
  let root = match at with `Document -> doc | `Root_element -> Dom.root_element doc in
  R2.number root

(* Byte-identity of the two artifacts Persist.save would write, plus the
   deep invariant sweep on the streamed numbering. *)
let check_identical ~what r2_stream r2_dom =
  R2.check r2_stream;
  Alcotest.(check string)
    (what ^ ": xml artifact byte-identical")
    (Bytes.to_string (Persist.xml_to_bytes r2_dom))
    (Bytes.to_string (Persist.xml_to_bytes r2_stream));
  Alcotest.(check string)
    (what ^ ": ruid sidecar byte-identical")
    (Bytes.to_string (Persist.sidecar_to_bytes r2_dom))
    (Bytes.to_string (Persist.sidecar_to_bytes r2_stream))

(* Equal Doc_index geometry: walking both trees in document order, every
   node pair carries the same rank and subtree extent. *)
let check_ranks r2_stream r2_dom =
  let ia = Rxpath.Doc_index.build r2_stream
  and ib = Rxpath.Doc_index.build r2_dom in
  Alcotest.(check int) "index sizes" (Rxpath.Doc_index.size ib)
    (Rxpath.Doc_index.size ia);
  List.iter2
    (fun a b ->
      Alcotest.(check int) "rank"
        (Rxpath.Doc_index.rank ib b)
        (Rxpath.Doc_index.rank ia a);
      Alcotest.(check (pair int int))
        "extent"
        (Rxpath.Doc_index.extent ib b)
        (Rxpath.Doc_index.extent ia a))
    (Dom.preorder (R2.root r2_stream))
    (Dom.preorder (R2.root r2_dom))

let gen_doc seed n =
  let root =
    Shape.generate ~seed ~target:(max 1 n)
      (Shape.Uniform { fanout_lo = 0; fanout_hi = 4 })
  in
  (* sprinkle text and attributes so non-element nodes cross area cuts *)
  List.iteri
    (fun i e ->
      if i mod 3 = 0 then Dom.append_child e (Dom.text (Printf.sprintf "t%d" i));
      if i mod 5 = 0 then Dom.set_attr e "k" (string_of_int i))
    (Dom.elements root);
  Rxml.Serializer.to_string root

let prop_equiv =
  Util.qtest ~count:40 "streaming build == parse+number (artifacts, ranks)"
    QCheck.(pair (int_range 1 120) (int_range 0 1000))
    (fun (n, seed) ->
      let src = gen_doc seed n in
      List.for_all
        (fun at ->
          let r2_dom = dom_build ~at src in
          (* string feed *)
          let b1 = SB.of_string ~at src in
          check_identical ~what:"string feed" b1.SB.r2 r2_dom;
          (* hostile chunking: 1-byte and mixed prime-sized refills *)
          let sizes = [ 1; 7; 3; 1; 13; 2 ] in
          let b2 = SB.of_source ~at (chopped_source src sizes) in
          check_identical ~what:"chopped feed" b2.SB.r2 r2_dom;
          check_ranks b2.SB.r2 r2_dom;
          true)
        [ `Document; `Root_element ])

let prop_explicit_depth =
  Util.qtest ~count:30 "explicit depth budget: stream == parse+number"
    QCheck.(pair (int_range 1 150) (int_range 0 1000))
    (fun (n, seed) ->
      let src = gen_doc seed n in
      List.for_all
        (fun (size, depth, adjust) ->
          let doc = Rxml.Parser.parse_string src in
          let r2_dom =
            R2.number ~max_area_size:size ~max_area_depth:depth ~adjust doc
          in
          let b =
            SB.of_string ~max_area_size:size ~max_area_depth:depth ~adjust
              ~at:`Document src
          in
          check_identical ~what:"explicit depth budget" b.SB.r2 r2_dom;
          true)
        [ (4, 2, false); (4, 2, true); (16, 3, true); (64, 8, true) ])

let test_mixed_markup () =
  let src =
    "<?xml version='1.0'?><!DOCTYPE r><r a='1'><!--c--><x>hi &amp; \
     <![CDATA[<raw>]]></x><?pi data?><y/><y>deep<z>er</z></y></r>"
  in
  List.iter
    (fun at ->
      (* CDATA sits next to character data here, so the reference is the
         legacy server ingest path (Sax.build_dom), which coalesces them *)
      let r2_dom = dom_build ~parser:`Sax ~at src in
      let b = SB.of_string ~at src in
      check_identical ~what:"mixed markup" b.SB.r2 r2_dom;
      check_ranks b.SB.r2 r2_dom)
    [ `Document; `Root_element ]

let test_stats () =
  let b = SB.of_string "<r><a><b/><b/><b/></a><c>t</c></r>" in
  Alcotest.(check int) "elements" 6 b.SB.stats.SB.elements;
  (* 6 elements + 1 text + document node *)
  Alcotest.(check int) "nodes" 8 b.SB.stats.SB.nodes;
  Alcotest.(check int) "max fanout" 3 b.SB.stats.SB.max_fanout;
  Alcotest.(check int) "max depth" 3 b.SB.stats.SB.max_depth

let test_truncated_feeds () =
  (* Cutting the document anywhere — including inside a tag name, an
     entity, a comment terminator — must raise Parse_error, never loop or
     crash, whatever the chunking. *)
  let src = "<root at='v'><mid>text &lt; <!--note--><leaf/></mid></root>" in
  let n = String.length src in
  List.iter
    (fun cut ->
      let truncated = String.sub src 0 cut in
      match
        SB.of_source ~at:`Document (chopped_source truncated [ 1; 3; 2 ])
      with
      | exception Rxml.Parser.Parse_error _ -> ()
      | _ -> Alcotest.failf "truncation at byte %d was accepted" cut)
    (List.init (n - 1) (fun i -> i)
    |> List.filter (fun i -> i mod 3 = 0 || i > n - 12))

let test_depth_budget () =
  (* satellite: Sax enforces the same nesting budget as Parser *)
  let deep k =
    String.concat "" (List.init k (fun i -> Printf.sprintf "<d%d>" i))
    ^ "x"
    ^ String.concat ""
        (List.init k (fun i -> Printf.sprintf "</d%d>" (k - 1 - i)))
  in
  (match Sax.iter ~max_depth:10 (deep 11) ~f:(fun _ -> ()) with
  | exception Rxml.Parser.Parse_error e ->
    Alcotest.(check bool) "names the budget" true
      (String.length e.Rxml.Parser.message > 0)
  | () -> Alcotest.fail "depth 11 accepted under budget 10");
  Sax.iter ~max_depth:10 (deep 10) ~f:(fun _ -> ());
  (match SB.of_string ~max_depth:10 (deep 11) with
  | exception Rxml.Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "Stream_build accepted over-deep document");
  (* a self-closing element counts against the budget too, as in Parser *)
  let leaf_at k = deep k |> fun s ->
    let i = String.index s 'x' in
    String.sub s 0 i ^ "<l/>" ^ String.sub s (i + 1) (String.length s - i - 1)
  in
  (match Sax.iter ~max_depth:10 (leaf_at 10) ~f:(fun _ -> ()) with
  | exception Rxml.Parser.Parse_error _ -> ()
  | () -> Alcotest.fail "self-closing leaf beyond the budget accepted");
  match Rxml.Parser.parse_string ~max_depth:10 (deep 11) with
  | exception Rxml.Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "Parser accepted over-deep document"

let test_large_doc_streams () =
  (* A DBLP-shaped document through a 512-byte-chunk channel feed: the
     numbering matches the string path end to end. *)
  let root = Rworkload.Dblp.generate ~seed:7 ~publications:300 in
  let src = Rxml.Serializer.to_string root in
  let path = Filename.temp_file "stream_build" ".xml" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let oc = open_out_bin path in
  output_string oc src;
  close_out oc;
  let b = SB.of_file ~chunk:512 ~at:`Document path in
  let r2_dom = dom_build ~at:`Document src in
  check_identical ~what:"dblp via channel" b.SB.r2 r2_dom

(* Every tag and attribute name a build keeps is the one string the build
   made for that name: two elements with the same tag share its bytes,
   whichever way the tree was built, also when a name is longer than the
   streaming window and arrives a few bytes at a time. *)
let test_shared_names () =
  let src =
    {|<r k="1"><a k="2" v="x"><b/><a k="3"/></a><b v="y">t</b><c_longer_than_one_window><b/></c_longer_than_one_window></r>|}
  in
  let check_tree what doc =
    let seen = Hashtbl.create 8 in
    let one name =
      match Hashtbl.find_opt seen name with
      | Some s ->
        if s != name then Alcotest.failf "%s: two strings for the name %S" what name
      | None -> Hashtbl.add seen name name
    in
    let names = ref 0 in
    Dom.iter_preorder
      (fun n ->
        match n.Dom.kind with
        | Dom.Element { tag; attrs } ->
          one tag;
          List.iter (fun (k, _) -> one k) attrs;
          names := !names + 1 + List.length attrs
        | _ -> ())
      doc;
    Alcotest.(check int) (what ^ ": names read") 12 !names;
    Alcotest.(check int) (what ^ ": distinct names") 6 (Hashtbl.length seen)
  in
  check_tree "Parser" (Rxml.Parser.parse_string src);
  check_tree "Sax.build_dom" (Sax.build_dom src);
  check_tree "Stream_build"
    (SB.of_source ~at:`Document (chopped_source src [ 1; 2; 3 ])).SB.doc;
  let r2 = (SB.of_string ~at:`Document src).SB.r2 in
  let dir = Filename.temp_file "shared_names" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let xml = Filename.concat dir "d.xml" and sidecar = Filename.concat dir "d.ruid" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ xml; sidecar ];
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
  @@ fun () ->
  Persist.save r2 ~xml ~sidecar;
  check_tree "Persist.load" (fst (Persist.load ~xml ~sidecar ()))

let suite =
  [
    prop_equiv;
    prop_explicit_depth;
    Alcotest.test_case "mixed markup" `Quick test_mixed_markup;
    Alcotest.test_case "pass statistics" `Quick test_stats;
    Alcotest.test_case "truncated/chopped feeds fail cleanly" `Quick
      test_truncated_feeds;
    Alcotest.test_case "nesting depth budget on the streaming path" `Quick
      test_depth_budget;
    Alcotest.test_case "large document through a file channel" `Quick
      test_large_doc_streams;
    Alcotest.test_case "one string per distinct tag and attribute name" `Quick
      test_shared_names;
  ]
