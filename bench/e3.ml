(* E3 — Cost of parent/ancestor derivation (Sections 2.2, 3.3; observation
   O2).  Bechamel micro-benchmarks: the original UID's one-division parent
   formula, ruid's rparent (Fig. 6), ancestor-list generation, and
   relationship decisions — all pure main-memory work. *)

open Bechamel

module Dom = Rxml.Dom
module U = Ruid.Uid.Over_int
module UB = Ruid.Uid.Over_big
module B = Bignum.Bignat
module R2 = Ruid.Ruid2
module Shape = Rworkload.Shape
module Rng = Rworkload.Rng

let run () =
  Report.section
    "E3  Parent and ancestor derivation cost (pure in-memory arithmetic)";
  let root = Shape.generate ~seed:31 ~target:20_000
      (Shape.Uniform { fanout_lo = 0; fanout_hi = 6 }) in
  let r2 = R2.number ~max_area_size:64 root in
  let lb_int = U.label root in
  let lb_big = UB.label root in
  let k = lb_int.U.k in
  let rng = Rng.create 7 in
  let sample_nodes =
    Array.init 512 (fun _ -> Shape.random_internal rng root)
  in
  let deep_node =
    List.fold_left
      (fun best n -> if Dom.depth_of n > Dom.depth_of best then n else best)
      root (Dom.preorder root)
  in
  Report.note "document: %d nodes, k = %d, %d UID-local areas, deepest node at depth %d"
    (Dom.size root) k (R2.area_count r2) (Dom.depth_of deep_node);
  let idx = ref 0 in
  let pick arr =
    idx := (!idx + 1) land 511;
    arr.(!idx)
  in
  let uid_ids = Array.map (U.id_of_node lb_int) sample_nodes in
  let uid_big_ids = Array.map (UB.id_of_node lb_big) sample_nodes in
  let ruid_ids = Array.map (R2.id_of_node r2) sample_nodes in
  let deep_uid = U.id_of_node lb_int deep_node in
  let deep_rid = R2.id_of_node r2 deep_node in
  let tests =
    [
      Test.make ~name:"uid: parent (formula 1, int)"
        (Staged.stage (fun () -> U.parent ~k (pick uid_ids)));
      Test.make ~name:"uid: parent (formula 1, bignum)"
        (Staged.stage (fun () -> UB.parent ~k (pick uid_big_ids)));
      Test.make ~name:"ruid2: rparent (Fig. 6)"
        (Staged.stage (fun () -> R2.rparent r2 (pick ruid_ids)));
      Test.make ~name:"dom: parent pointer"
        (Staged.stage (fun () -> (pick sample_nodes).Dom.parent));
      Test.make ~name:"uid: full ancestor list (deepest node)"
        (Staged.stage (fun () -> U.ancestors ~k deep_uid));
      Test.make ~name:"ruid2: rancestor (deepest node)"
        (Staged.stage (fun () -> R2.rancestors r2 deep_rid));
      Test.make ~name:"uid: relation (two random ids)"
        (Staged.stage (fun () -> U.relation ~k (pick uid_ids) (pick uid_ids)));
      Test.make ~name:"ruid2: relationship (two random ids)"
        (Staged.stage (fun () -> R2.relationship r2 (pick ruid_ids) (pick ruid_ids)));
    ]
  in
  ignore (Micro.run_table "E3.a  per-operation cost" tests);
  Report.note
    "Shape (O2): rparent is a few times the single-division UID parent but the";
  Report.note
    "same order of magnitude, entirely in memory; both beat touching storage."
