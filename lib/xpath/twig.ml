type edge = Child | Descendant

type pattern = {
  tag : string;
  edge : edge;
  branches : pattern list;
  spine : pattern option;
}

type t = pattern

let pattern t = t

(* ------------------------------------------------------------------ *)
(* Compilation from XPath                                              *)
(* ------------------------------------------------------------------ *)

(* A predicate usable as a twig branch: a relative child/descendant
   name-test path without further predicates except nested twig branches. *)
let rec branch_of_path (p : Ast.path) : pattern option =
  if p.Ast.absolute then None
  else steps_to_chain ~first_edge:Child p.Ast.steps

and steps_to_chain ~first_edge steps : pattern option =
  match steps with
  | [] -> None
  | _ ->
    let rec go edge = function
      | { Ast.axis = Ast.Descendant_or_self; test = Ast.Node_any; preds = [] }
        :: ({ Ast.axis = Ast.Child; test = Ast.Name _; _ } as nxt) :: rest ->
        go Descendant (nxt :: rest)
      | { Ast.axis = Ast.Child; test = Ast.Name tag; preds } :: rest ->
        finish edge tag preds rest
      | { Ast.axis = Ast.Descendant; test = Ast.Name tag; preds } :: rest ->
        finish Descendant tag preds rest
      | _ -> None
    and finish edge tag preds rest =
      let branches =
        List.fold_left
          (fun acc pred ->
            match acc with
            | None -> None
            | Some bs -> (
              match branch_of_pred pred with
              | Some more -> Some (bs @ more)
              | None -> None))
          (Some []) preds
      in
      match branches with
      | None -> None
      | Some branches -> (
        match rest with
        | [] -> Some { tag; edge; branches; spine = None }
        | rest -> (
          match go Child rest with
          | Some spine -> Some { tag; edge; branches; spine = Some spine }
          | None -> None))
    in
    go first_edge steps

(* A predicate contributes branches when it is a relative path, or a
   conjunction of such. *)
and branch_of_pred (e : Ast.expr) : pattern list option =
  match e with
  | Ast.Path p -> (
    match branch_of_path p with Some b -> Some [ b ] | None -> None)
  | Ast.And (a, b) -> (
    match (branch_of_pred a, branch_of_pred b) with
    | Some x, Some y -> Some (x @ y)
    | _ -> None)
  | _ -> None

let of_xpath (p : Ast.path) : t option =
  (* A leading descendant edge only ever comes from the steps themselves
     (the // expansion or an explicit descendant axis). *)
  steps_to_chain ~first_edge:Child p.Ast.steps
