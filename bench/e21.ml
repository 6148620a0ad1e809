(* E21 — Publication cost against document size.

   An UPDATE renumbers one UID-local area (Section 3.2): its cost should
   not depend on how large the document around that area is.  Publishing
   the update derives the next snapshot version from the previous one
   ([Snapshot.advance]: an O(1) [Ruid2.clone], the operation's replay, the
   index and planner successors).  Each version shares everything the
   operation did not touch, so a one-insert publication should cost about
   the same on a 4k-node document as on a 200k-node one.

   Method: XMark documents at four sizes, numbered at area size 64 and
   hosted with a query planner, as the server hosts them.  Each sample
   publishes one leaf insert under an element drawn at random (seeded);
   wall time and words allocated (minor + major - promoted), medians over
   the samples.  Three cases per size:
   - fresh: every sample publishes from the same freshly built version
     and inserts a tag the document lacks (its posting is empty);
   - common tag: the same, inserting the document's most frequent element
     tag, whose posting array the index successor copies — this term grows
     with the tag's cardinality, so with the document;
   - steady: the version after n/16 published updates (half inserts of
     a leaf tagged [u] under random elements, half deletes of random
     leaves), so the order index carries thousands of edits (14k at 205k
     nodes); the samples continue that chain, one publication each.  The
     churn inserts one tag other than the sampled one, so neither the
     sampled posting nor the DataGuide grows with the document: this row
     isolates the order index, the common-tag row the postings.
   [Ruid2.clone] is timed over a loop.

   Rows and the 200k:4k ratios go to BENCH_publish.json; the CI [write]
   job fails when the fresh time or words ratio or the steady words ratio
   exceeds 4 (the target is 2; runners are noisy).  The steady time ratio
   is reported only: its 4k median moves between 69 and 113 us from run
   to run on one machine.  So are the common-tag ratios. *)

module Dom = Rxml.Dom
module R2 = Ruid.Ruid2
module Snapshot = Rserver.Snapshot
module Wal = Rstorage.Wal
module Rng = Rworkload.Rng

let max_area_size = 64
let scales = [ 1.0; 5.0; 10.0; 50.0 ]
let samples = 64

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(Array.length a / 2)

(* [Gc.quick_stat]'s counters move only at collections; [Gc.minor_words]
   is exact. *)
let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Median time (us) and words of [publish (prepare ())] over [samples]
   calls, [prepare] untimed. *)
let sample prepare publish =
  let times = ref [] and allocs = ref [] in
  for _ = 1 to samples do
    let x = prepare () in
    let w0 = words () in
    let t0 = Unix.gettimeofday () in
    let next = publish x in
    let t1 = Unix.gettimeofday () in
    let w1 = words () in
    ignore (Sys.opaque_identity next);
    times := ((t1 -. t0) *. 1e6) :: !times;
    allocs := (w1 -. w0) :: !allocs
  done;
  (median !times, median !allocs)

let doc snap = snap.Snapshot.docs.(0).Snapshot.r2
let size snap = Ruid.Order_index.size (R2.order (doc snap))

(* A preorder rank of the current version whose node satisfies [ok]. *)
let rec rank_where rng snap ok =
  let r = Rng.int rng (size snap) in
  match R2.node_at_rank (doc snap) r with
  | Some n when ok r n -> r
  | _ -> rank_where rng snap ok

let element_rank rng snap = rank_where rng snap (fun _ n -> Dom.is_element n)

let leaf_rank rng snap =
  rank_where rng snap (fun r n -> r > 0 && n.Dom.children = [])

let insert rng snap tag =
  Wal.Insert { parent_rank = element_rank rng snap; pos = 0; tag }

let most_frequent_tag root =
  let counts = Hashtbl.create 64 in
  Dom.iter_preorder
    (fun n ->
      if Dom.is_element n then
        let tag = Dom.tag n in
        Hashtbl.replace counts tag
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts tag)))
    root;
  Hashtbl.fold
    (fun tag c (best, bc) -> if c > bc then (tag, c) else (best, bc))
    counts ("", 0)

type row = {
  nodes : int;
  fresh : float * float;  (* advance us, words *)
  common : float * float;
  common_tag : string;
  common_card : int;
  steady : float * float;
  churn : int;
  clone_us : float;
}

let measure scale =
  let root = Rworkload.Xmark.generate ~seed:21 ~scale in
  let nodes = Dom.size root in
  let common_tag, common_card = most_frequent_tag root in
  let r2 = R2.number ~max_area_size root in
  let snap, _ =
    Snapshot.host
      (Snapshot.capture ~version:1 [])
      ~planner:(Rxpath.Planner.make_shared ()) ~version:1 [ ("d", r2) ]
  in
  let rng = Rng.create (int_of_float scale) in
  let from_built tag =
    let publish op = Snapshot.advance snap ~version:2 [ (0, [ op ], 2) ] in
    (* one warm-up publication, then the samples *)
    ignore (publish (insert rng snap tag));
    sample (fun () -> insert rng snap tag) publish
  in
  let fresh = from_built "bid" in
  let common = from_built common_tag in
  (* n/16 updates, one publication each, then the samples continue the
     chain *)
  let churn = nodes / 16 in
  let cur = ref snap and v = ref 1 in
  let publish op =
    incr v;
    cur := fst (Snapshot.advance !cur ~version:!v [ (0, [ op ], !v) ])
  in
  for i = 1 to churn do
    publish
      (if i land 1 = 0 then insert rng !cur "u"
       else Wal.Delete { rank = leaf_rank rng !cur })
  done;
  let steady = sample (fun () -> insert rng !cur "bid") publish in
  let published = doc snap in
  let reps = 10_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (R2.clone published))
  done;
  let clone_us = (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int reps in
  { nodes; fresh; common; common_tag; common_card; steady; churn; clone_us }

let run () =
  Report.section "E21  Publication cost against document size";
  let rows = List.map (fun s -> (s, measure s)) scales in
  let us (t, _) = Printf.sprintf "%.1f us" t and ws (_, w) = Printf.sprintf "%.0f" w in
  Report.table
    [ "xmark scale"; "nodes"; "fresh"; "words"; "common tag"; "words";
      "steady"; "words"; "Ruid2.clone" ]
    (List.map
       (fun (s, r) ->
         [ Printf.sprintf "%.1f" s; Report.fint r.nodes; us r.fresh; ws r.fresh;
           Printf.sprintf "%s (%s x%d)" (us r.common) r.common_tag r.common_card;
           ws r.common; us r.steady; ws r.steady;
           Printf.sprintf "%.3f us" r.clone_us ])
       rows);
  let first = snd (List.hd rows) and last = snd (List.nth rows (List.length rows - 1)) in
  let ratio f = (fst (f last) /. fst (f first), snd (f last) /. snd (f first)) in
  let fresh_t, fresh_w = ratio (fun r -> r.fresh) in
  let common_t, common_w = ratio (fun r -> r.common) in
  let steady_t, steady_w = ratio (fun r -> r.steady) in
  Report.note "largest:smallest — fresh %.2fx time, %.2fx words; common tag %.2fx, %.2fx; steady %.2fx, %.2fx"
    fresh_t fresh_w common_t common_w steady_t steady_w;
  let oc = open_out "BENCH_publish.json" in
  Printf.fprintf oc
    "{\n  \"experiment\": \"E21\",\n%s,\n  \"headline\": {\"comment\": \"one-insert Snapshot.advance, largest over smallest document, medians of %d publications each; fresh: first insert of an absent tag after a build; steady: after n/16 published updates; common_tag: inserting the most frequent tag (copies its posting)\", \"advance_ratio\": %.3f, \"words_ratio\": %.3f, \"steady_advance_ratio\": %.3f, \"steady_words_ratio\": %.3f, \"common_tag_advance_ratio\": %.3f, \"common_tag_words_ratio\": %.3f},\n  \"rows\": [\n%s\n  ]\n}\n"
    (Report.meta_json ()) samples fresh_t fresh_w steady_t steady_w common_t
    common_w
    (String.concat ",\n"
       (List.map
          (fun (s, r) ->
            Printf.sprintf
              "    {\"scale\": %.1f, \"nodes\": %d, \"area_size\": %d, \"advance_us\": %.2f, \"words_per_publication\": %.0f, \"common_tag\": %S, \"common_tag_cardinality\": %d, \"common_tag_advance_us\": %.2f, \"common_tag_words\": %.0f, \"steady_updates_before\": %d, \"steady_advance_us\": %.2f, \"steady_words\": %.0f, \"clone_us\": %.4f}"
              s r.nodes max_area_size (fst r.fresh) (snd r.fresh) r.common_tag
              r.common_card (fst r.common) (snd r.common) r.churn
              (fst r.steady) (snd r.steady) r.clone_us)
          rows));
  close_out oc;
  Report.note "wrote BENCH_publish.json"
