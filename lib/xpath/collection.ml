module Dom = Rxml.Dom

type doc_id = int

type gid = { doc : doc_id; id : Ruid.Ruid2.id }

let pp_gid ppf g = Format.fprintf ppf "doc%d:%a" g.doc Ruid.Ruid2.pp_id g.id

type entry = { name : string; r2 : Ruid.Ruid2.t }

(* [docs] is an amortized-growth buffer: only the first [len] slots are
   live, and [add] doubles the buffer instead of reallocating per
   document (the old [Array.append] made registering n documents O(n²)
   — fatal once a router catalogs a 100k-document corpus).  [index]
   maps name -> slot so [find] is O(1) instead of a linear scan. *)
type t = {
  max_area_size : int;
  mutable docs : entry array;
  mutable len : int;
  index : (string, int) Hashtbl.t;
}

let create ?(max_area_size = 64) () =
  { max_area_size; docs = [||]; len = 0; index = Hashtbl.create 64 }

let doc_count t = t.len

let names t =
  List.init t.len (fun i -> t.docs.(i).name)

let find t name = Hashtbl.find_opt t.index name

let entry t doc =
  if doc < 0 || doc >= t.len then
    invalid_arg "Collection: unknown document id";
  t.docs.(doc)

let name_of t doc = (entry t doc).name
let ruid t doc = (entry t doc).r2

let reserve t filler =
  if t.len >= Array.length t.docs then begin
    let cap = max 8 (2 * Array.length t.docs) in
    let grown = Array.make cap filler in
    Array.blit t.docs 0 grown 0 t.len;
    t.docs <- grown
  end

let add t ~name root =
  (match find t name with
  | Some _ -> invalid_arg ("Collection.add: duplicate name " ^ name)
  | None -> ());
  let r2 = Ruid.Ruid2.number ~max_area_size:t.max_area_size root in
  let e = { name; r2 } in
  reserve t e;
  let id = t.len in
  t.docs.(id) <- e;
  t.len <- id + 1;
  Hashtbl.replace t.index name id;
  id

let gid_of_node t doc n = { doc; id = Ruid.Ruid2.id_of_node (ruid t doc) n }

let node_of_gid t g =
  if g.doc < 0 || g.doc >= t.len then None
  else Ruid.Ruid2.node_of_id (ruid t g.doc) g.id

let relationship t a b =
  if a.doc <> b.doc then None
  else Some (Ruid.Ruid2.relationship (ruid t a.doc) a.id b.id)

let query t src =
  let u = Xparser.parse_union src in
  List.init t.len (fun i ->
      let eng = Engine_ruid.create t.docs.(i).r2 in
      (i, Eval.select_union eng u))
  |> List.filter (fun (_, nodes) -> nodes <> [])

let total_nodes t =
  let acc = ref 0 in
  for i = 0 to t.len - 1 do
    acc := !acc + List.length (Ruid.Ruid2.all_nodes t.docs.(i).r2)
  done;
  !acc

let aux_memory_words t =
  let acc = ref 0 in
  for i = 0 to t.len - 1 do
    acc := !acc + Ruid.Ruid2.aux_memory_words t.docs.(i).r2
  done;
  !acc
