type row = { global : int; root_local : int; fanout : int }

module IMap = Map.Make (Int)

(* A balanced map by global index: lookups and edits are O(log areas),
   and a numbering's versions share all but the path an edit copies. *)
type t = row IMap.t

let make rows =
  List.fold_left
    (fun t r ->
      if IMap.mem r.global t then
        invalid_arg "Ktable.make: duplicate global index";
      IMap.add r.global r t)
    IMap.empty rows

let find t g = IMap.find_opt g t
let fanout t g = (IMap.find g t).fanout
let root_local t g = (IMap.find g t).root_local
let mem t g = IMap.mem g t
let rows t = List.map snd (IMap.bindings t)
let size t = IMap.cardinal t

let rows_in_range t ~lo ~hi =
  IMap.to_seq_from lo t
  |> Seq.take_while (fun (g, _) -> g <= hi)
  |> Seq.map snd |> List.of_seq

let frame_children_rows t ~parent_global ~kappa =
  (* Frame children of [parent_global] have identifiers in
     [(parent_global - 1) * kappa + 2 .. parent_global * kappa + 1]. *)
  let first = ((parent_global - 1) * kappa) + 2 in
  rows_in_range t ~lo:first ~hi:(first + kappa - 1)

let area_rooted_at t ~parent_global ~kappa ~local =
  match
    List.find_opt
      (fun r -> r.root_local = local)
      (frame_children_rows t ~parent_global ~kappa)
  with
  | Some r -> Some r.global
  | None -> None

let with_row t row = IMap.add row.global row t
let without t g = IMap.remove g t
let memory_words t = 3 * size t

let pp ppf t =
  Format.fprintf ppf "@[<v>global  root-local  fanout@,";
  IMap.iter
    (fun _ r -> Format.fprintf ppf "%6d  %10d  %6d@," r.global r.root_local r.fanout)
    t;
  Format.fprintf ppf "@]"
