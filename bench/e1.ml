(* E1 — Identifier magnitude and overflow (Sections 1, 3.1; observation O1).

   The original UID enumerates a virtual complete k-ary tree, so its
   identifier magnitude is k^depth regardless of how many real nodes exist;
   ruid grades and localizes k, keeping every stored index small.  The
   tables report (a) the analytic magnitude of the enumeration, (b) measured
   identifier widths on concrete documents, (c) the e^m capacity law of
   multilevel ruid. *)

module Dom = Rxml.Dom
module Stats = Rxml.Stats
module B = Bignum.Bignat
module UB = Ruid.Uid.Over_big
module R2 = Ruid.Ruid2
module MR = Ruid.Mruid
module Shape = Rworkload.Shape

let analytic_table () =
  Report.subsection
    "E1.a  Analytic identifier magnitude: bits of the last UID of a complete k-ary tree";
  let rows =
    List.concat_map
      (fun k ->
        List.map
          (fun depth ->
            let bits = B.bit_length (UB.max_id_at_depth ~k ~depth) in
            [
              Report.fint k; Report.fint depth; Report.fint bits;
              Report.fbool (bits <= 62);
            ])
          [ 4; 8; 12; 16; 24 ])
      [ 2; 10; 100; 1000 ]
  in
  Report.table [ "k"; "depth"; "uid bits"; "fits in 63-bit int" ] rows;
  Report.note
    "UID magnitude is k^depth: with fan-out 1000 the native range is gone at depth 7."

let docs () =
  [
    ("uniform-10k", Shape.generate ~seed:1 ~target:10_000
        (Shape.Uniform { fanout_lo = 0; fanout_hi = 6 }));
    ("deep-recursive", Shape.generate ~seed:2 ~target:4_000
        (Shape.Deep { fanout = 3; bias = 0.85 }));
    ("skewed-fanout", Shape.generate ~seed:3 ~target:10_000
        (Shape.Skewed { max_fanout = 400; s = 1.1 }));
    ("dblp-3k-pubs", Rworkload.Dblp.generate ~seed:4 ~publications:3_000);
    ("xmark-scale-2", Rworkload.Xmark.generate ~seed:5 ~scale:2.0);
    ("comb-d30-w40", Shape.comb ~depth:30 ~width:40 ());
    ("comb-d12-w200", Shape.comb ~depth:12 ~width:200 ());
  ]

let measured_table () =
  Report.subsection
    "E1.b  Measured identifier widths per document (uid over bignums vs ruid)";
  let rows =
    List.map
      (fun (name, root) ->
        let st = Stats.compute root in
        let uid_bits =
          let lb = UB.label root in
          Hashtbl.fold (fun _ v acc -> max acc (B.bit_length v)) lb.UB.id_of 0
        in
        let ruid2_bits, areas =
          match R2.number ~max_area_size:64 root with
          | r2 -> (Report.fint (R2.max_local_bits r2), Report.fint (R2.area_count r2))
          | exception Ruid.Uid.Overflow -> ("overflow", "-")
        in
        let mr = Ruid.Mruid.build root in
        [
          name;
          Report.fint st.Stats.nodes;
          Report.fint st.Stats.max_fanout;
          Report.fint st.Stats.max_depth;
          Report.fint uid_bits;
          Report.fbool (uid_bits <= 62);
          ruid2_bits;
          Printf.sprintf "%d (%d lvl)" (Ruid.Mruid.max_component_bits mr)
            (Ruid.Mruid.levels mr);
          areas;
        ])
      (docs ())
  in
  Report.table
    [
      "document"; "nodes"; "max k"; "depth"; "uid bits"; "uid fits";
      "ruid2 bits"; "mruid bits"; "areas";
    ]
    rows;
  Report.note
    "'uid bits' is the widest identifier the original UID assigns to a real node;";
  Report.note
    "'ruid2/mruid bits' the widest index ruid stores. Shape: UID regularly bursts";
  Report.note
    "the 63-bit budget; 2-level ruid stays in small integers except on the";
  Report.note
    "deep-AND-wide comb, where the recursive multilevel form takes over (O1)."

let capacity_table () =
  Report.subsection
    "E1.c  Section 3.1 capacity law: m-level ruid addresses ~ e^m nodes";
  let rows =
    List.concat_map
      (fun e ->
        List.map
          (fun m ->
            let cap = MR.addressable ~e ~levels:m in
            [
              Report.fint e; Report.fint m;
              (if B.bit_length cap <= 60 then B.to_string cap
               else Printf.sprintf "~2^%d" (B.bit_length cap - 1));
            ])
          [ 1; 2; 3; 4 ])
      [ 1_000; 1_000_000 ]
  in
  Report.table [ "e (per level)"; "levels m"; "addressable nodes" ] rows

let run () =
  Report.section "E1  Identifier magnitude, overflow and scalability";
  analytic_table ();
  measured_table ();
  capacity_table ()
