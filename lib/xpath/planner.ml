module Dom = Rxml.Dom
module R2 = Ruid.Ruid2
module O = Ruid.Order_index
module G = Rsummary.Dataguide

(* ------------------------------------------------------------------ *)
(* Plan algebra                                                        *)
(* ------------------------------------------------------------------ *)

type edge = Child | Descendant

let edge_name = function Child -> "child" | Descendant -> "descendant"

(* Physical operator joining one chain position to the next (the rank
   kernels under "Execution" below):
   - Probe: per-node parent/ancestor pointer work;
   - Merge: linear sweep of both rank-ordered sides (forward pointer up,
     max-extent-end down);
   - Range: binary-search the posting array per upper extent (down only,
     lower side must be a whole posting list);
   - Walk: step through the children of each upper and test the tag
     (down/child only). *)
type jmethod = Probe | Merge | Range | Walk

let jmethod_name = function
  | Probe -> "probe"
  | Merge -> "merge"
  | Range -> "range"
  | Walk -> "walk"

type cstep = { cedge : edge; ctag : string }

type chain = {
  cabs : bool;
  csteps : cstep array;
  card : int array;  (* posting cardinality per position, at plan time *)
  est : int array;  (* estimated matches per position; -1 when unknown *)
  pivot : int;  (* position whose postings seed the up phase *)
  up_meth : jmethod array;  (* method producing S_i, for i < pivot *)
  down_meth : jmethod array;  (* method producing D_i; slot 0 = anchor *)
  ccost : float;
}

type plan =
  | Empty of string  (* guide refutation: why no node can match *)
  | Chain of chain
  | TwigJoin of { twig : Twig.t; tabs : bool; t_est : int; tcost : float }
  | Fallback of Ast.union_path

type kind = [ `Chain | `Twig | `Engine | `Pruned ]

let kind = function
  | Empty _ -> `Pruned
  | Chain _ -> `Chain
  | TwigJoin _ -> `Twig
  | Fallback _ -> `Engine

let kind_name = function
  | `Chain -> "chain-join"
  | `Twig -> "twig-join"
  | `Engine -> "engine-fallback"
  | `Pruned -> "guide-pruned"

(* ------------------------------------------------------------------ *)
(* Shared state: plan cache + per-strategy counters                    *)
(* ------------------------------------------------------------------ *)

type counters = {
  chain_runs : int Atomic.t;
  twig_runs : int Atomic.t;
  engine_runs : int Atomic.t;
  pruned_runs : int Atomic.t;
}

type shared = { cache : plan Plan_cache.t option; counters : counters }

type stats = {
  chain : int;
  twig : int;
  engine : int;
  pruned : int;
  cache_stats : Plan_cache.stats option;
}

let make_shared ?(plan_cache = 256) () =
  {
    cache =
      (if plan_cache <= 0 then None
       else Some (Plan_cache.create ~capacity:plan_cache));
    counters =
      {
        chain_runs = Atomic.make 0;
        twig_runs = Atomic.make 0;
        engine_runs = Atomic.make 0;
        pruned_runs = Atomic.make 0;
      };
  }

let shared_stats sh =
  {
    chain = Atomic.get sh.counters.chain_runs;
    twig = Atomic.get sh.counters.twig_runs;
    engine = Atomic.get sh.counters.engine_runs;
    pruned = Atomic.get sh.counters.pruned_runs;
    cache_stats = Option.map Plan_cache.stats sh.cache;
  }

(* ------------------------------------------------------------------ *)
(* Planner instance                                                    *)
(* ------------------------------------------------------------------ *)

type t = {
  r2 : R2.t;
  index : Doc_index.t;
  engine : Eval.engine;
  guide : G.t;
  doc_rooted : bool;  (* numbering root is a document node, not an element *)
  shared : shared;
}

let create ?shared r2 =
  let shared = match shared with Some s -> s | None -> make_shared () in
  let index = Doc_index.build r2 in
  let root = R2.root r2 in
  {
    r2;
    index;
    engine = Engine_ruid.create ~index r2;
    guide = G.build root;
    doc_rooted = not (Dom.is_element root);
    shared;
  }

let engine t = t.engine
let index t = t.index
let shared_of t = t.shared
let guide t = t.guide
let guide_fingerprint t = G.fingerprint t.guide

type delta = Add of string list | Remove of string list

let advance prev r2 ~deltas =
  let guide =
    let g = G.clone prev.guide in
    let consistent =
      List.for_all
        (function
          | Add p ->
            G.add_path g p;
            true
          | Remove p -> G.remove_path g p)
        deltas
    in
    if consistent then begin
      G.prune g;
      g
    end
    else G.build (R2.root r2)  (* deltas disagree with the guide: rebuild *)
  in
  let index = Doc_index.advance prev.index r2 in
  let root = R2.root r2 in
  {
    r2;
    index;
    engine = Engine_ruid.create ~index r2;
    guide;
    doc_rooted = not (Dom.is_element root);
    shared = prev.shared;
  }

let rooted t = function None -> true | Some c -> c == R2.root t.r2

(* ------------------------------------------------------------------ *)
(* Guide reasoning: frontiers, satisfiability, exact path counts       *)
(* ------------------------------------------------------------------ *)

(* Absolute paths (and, when the context is the root, relative ones too)
   anchor where the evaluator anchors them: at the document node when the
   numbering covers one, else at the root element.  The guide's virtual
   root plays the document node; an element-rooted tree starts one level
   down. *)
let start_frontier t =
  let root = G.cursor t.guide in
  if t.doc_rooted then [ root ] else G.cursor_children root

let exists_desc pred c =
  let rec go c =
    List.exists (fun ch -> pred ch || go ch) (G.cursor_children c)
  in
  go c

let dedup_cursors l =
  List.rev
    (List.fold_left
       (fun acc c -> if List.memq c acc then acc else c :: acc)
       [] l)

let gstep frontier { cedge; ctag } =
  let matching c = G.cursor_label c = ctag in
  let nexts =
    List.concat_map
      (fun c ->
        match cedge with
        | Child -> List.filter matching (G.cursor_children c)
        | Descendant ->
          let acc = ref [] in
          let rec go c =
            List.iter
              (fun ch ->
                if matching ch then acc := ch :: !acc;
                go ch)
              (G.cursor_children c)
          in
          go c;
          !acc)
      frontier
  in
  dedup_cursors nexts

(* Can the chain suffix steps.(i..) be realized strictly below cursor [c]? *)
let rec has_suffix steps n i c =
  if i >= n then true
  else
    let { cedge; ctag } = steps.(i) in
    let pred ch = G.cursor_label ch = ctag && has_suffix steps n (i + 1) ch in
    match cedge with
    | Child -> List.exists pred (G.cursor_children c)
    | Descendant -> exists_desc pred c

let all_cursors t =
  let acc = ref [] in
  let rec go c =
    List.iter
      (fun ch ->
        acc := ch :: !acc;
        go ch)
      (G.cursor_children c)
  in
  go (G.cursor t.guide);
  !acc

let sum_counts frontier =
  List.fold_left (fun acc c -> acc + G.cursor_count c) 0 frontier

(* Twig satisfiability against the guide: does any label configuration of
   the document realize the whole pattern (spine and branches) from the
   root anchor?  Purely structural, so sound under count drift. *)
let twig_sat t (pat : Twig.pattern) =
  let rec matches c (p : Twig.pattern) =
    G.cursor_label c = p.Twig.tag
    && List.for_all (connect c) p.Twig.branches
    && (match p.Twig.spine with None -> true | Some sp -> connect c sp)
  and connect c (p : Twig.pattern) =
    let pred ch = matches ch p in
    match p.Twig.edge with
    | Twig.Child -> List.exists pred (G.cursor_children c)
    | Twig.Descendant -> exists_desc pred c
  in
  List.exists (fun st -> connect st pat) (start_frontier t)

(* ------------------------------------------------------------------ *)
(* Chain extraction from the AST                                       *)
(* ------------------------------------------------------------------ *)

(* The maximal prefix of child/descendant name-test steps, predicates
   ignored — every result node must descend through these labels, so an
   unrealizable prefix refutes the whole path.  [pure] when the entire
   path is the chain and carries no predicates: only then can the chain
   plan compute the answer by itself. *)
let chain_of_steps steps =
  let rec go acc pure = function
    | [] -> (List.rev acc, pure)
    | { Ast.axis = Ast.Descendant_or_self; test = Ast.Node_any; preds = [] }
      :: { Ast.axis = Ast.Child; test = Ast.Name tag; preds }
      :: rest ->
      go ({ cedge = Descendant; ctag = tag } :: acc) (pure && preds = []) rest
    | { Ast.axis = Ast.Child; test = Ast.Name tag; preds } :: rest ->
      go ({ cedge = Child; ctag = tag } :: acc) (pure && preds = []) rest
    | { Ast.axis = Ast.Descendant; test = Ast.Name tag; preds } :: rest ->
      go ({ cedge = Descendant; ctag = tag } :: acc) (pure && preds = []) rest
    | _ :: _ -> (List.rev acc, false)
  in
  go [] true steps

let twig_edge (p : Twig.pattern) =
  match p.Twig.edge with Twig.Child -> Child | Twig.Descendant -> Descendant

let rec spine_steps (p : Twig.pattern) =
  { cedge = twig_edge p; ctag = p.Twig.tag }
  :: (match p.Twig.spine with None -> [] | Some sp -> spine_steps sp)

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

(* Unit: one pointer/arithmetic touch.  [c_anc]/[c_fan] charge pointer
   walks per node (average depth / fanout), [c_interp] the evaluator's
   interpretive overhead per generated node (axis dispatch, node tests,
   per-step sort-merge) relative to a compiled join loop. *)
let c_anc = 8.
let c_fan = 8.
let c_interp = 4.
let c_pred = 12.

let f i = float_of_int (max 1 i)
let sortc k = if k <= 1. then 0. else k *. Float.log2 (k +. 1.)

let up_cost edge ~u ~l =
  match edge with
  | Child -> (Probe, l +. sortc l)
  | Descendant ->
    let merge = u +. l and probe = (l *. c_anc) +. sortc l in
    if probe < merge then (Probe, probe) else (Merge, merge)

let down_cost edge ~u ~l ~out ~lower_is_postings =
  match edge with
  | Child ->
    let probe = u +. l and walk = (u *. c_fan) +. sortc out in
    if walk < probe then (Walk, walk) else (Probe, probe)
  | Descendant ->
    let merge = u +. l in
    if lower_is_postings then begin
      let range = (u *. 2. *. Float.log2 (l +. 2.)) +. out in
      if range < merge then (Range, range) else (Merge, merge)
    end
    else (Merge, merge)

(* What the fallback evaluator would pay, from the original AST. *)
let engine_cost_path t (path : Ast.path) =
  let total = float_of_int (Doc_index.size t.index) in
  let rec go ctx = function
    | [] -> 0.
    | (s : Ast.step) :: rest ->
      let card =
        match s.test with
        | Ast.Name tag -> float_of_int (Doc_index.cardinality t.index tag)
        | _ -> total /. 2.
      in
      let out =
        match s.axis with
        | Ast.Child | Ast.Attribute | Ast.Parent | Ast.Self ->
          Float.min card (ctx *. c_fan)
        | Ast.Descendant | Ast.Descendant_or_self -> Float.max card ctx
        | _ -> Float.min total (Float.max card ctx)
      in
      let axis_cost =
        match s.axis with
        | Ast.Descendant | Ast.Descendant_or_self | Ast.Following
        | Ast.Preceding ->
          (ctx *. 2. *. Float.log2 (card +. 2.)) +. (out *. c_interp)
        | _ -> ctx *. c_fan *. c_interp
      in
      let pred_cost = float_of_int (List.length s.preds) *. c_pred *. out in
      axis_cost +. pred_cost +. go out rest
  in
  go 1. path.Ast.steps

let engine_cost_union t u =
  List.fold_left (fun acc p -> acc +. engine_cost_path t p) 0. u

(* Merge-based semijoins: bottom-up, every pattern edge is one linear
   pass over the two posting lists it joins (parent-hash for child
   edges, stack-tree for descendant edges); top-down, each spine edge
   pays the same once more.  Charged on raw cardinalities — an upper
   bound, since upstream restrictions only shrink the inputs. *)
let twig_cost t tw =
  let card tag = f (Doc_index.cardinality t.index tag) in
  let rec go (p : Twig.pattern) =
    let kids = p.Twig.branches @ Option.to_list p.Twig.spine in
    let up =
      List.fold_left
        (fun acc (c : Twig.pattern) ->
          acc +. card p.Twig.tag +. card c.Twig.tag)
        0. kids
    in
    let down =
      match p.Twig.spine with
      | Some sp -> card p.Twig.tag +. card sp.Twig.tag
      | None -> 0.
    in
    up +. down +. List.fold_left (fun acc c -> acc +. go c) 0. kids
  in
  go (Twig.pattern tw)

(* ------------------------------------------------------------------ *)
(* Chain planning                                                      *)
(* ------------------------------------------------------------------ *)

(* Enumerate pivots: seed the join pipeline from each position's posting
   list, restrict upward to the anchor, then propagate downward; keep the
   cheapest.  Returns [None] when the engine estimate beats every pivot. *)
let plan_chain t ~use_guide ~absolute (steps : cstep list) ~eng_cost =
  let csteps = Array.of_list steps in
  let n = Array.length csteps in
  let card =
    Array.map (fun s -> Doc_index.cardinality t.index s.ctag) csteps
  in
  (* Guide estimates: [sfx.(i)] — nodes labeled t_i able to complete the
     chain below themselves (up-phase survivor estimate); [est.(i)] —
     nodes additionally reachable through the chain prefix (down-phase
     output estimate; exact at the output position of a rooted pure
     chain). *)
  let sfx, est =
    if use_guide then begin
      let all = all_cursors t in
      let sfx =
        Array.init n (fun i ->
            sum_counts
              (List.filter
                 (fun c ->
                   G.cursor_label c = csteps.(i).ctag
                   && has_suffix csteps n (i + 1) c)
                 all))
      in
      let frontier = ref (start_frontier t) in
      let est =
        Array.init n (fun i ->
            frontier := gstep !frontier csteps.(i);
            sum_counts (List.filter (has_suffix csteps n (i + 1)) !frontier))
      in
      (sfx, est)
    end
    else begin
      (* No guide for this anchoring: fall back to posting cardinalities
         (a chain position can never out-produce its rarest tag). *)
      let sfx = Array.make n 0 and est = Array.make n 0 in
      let acc = ref max_int in
      for i = n - 1 downto 0 do
        acc := min !acc card.(i);
        sfx.(i) <- !acc
      done;
      acc := max_int;
      for i = 0 to n - 1 do
        acc := min !acc card.(i);
        est.(i) <- !acc
      done;
      (sfx, est)
    end
  in
  let best = ref None in
  for pivot = 0 to n - 1 do
    let up_meth = Array.make n Probe in
    let down_meth = Array.make n Merge in
    let cost = ref (f card.(pivot)) in
    (* up phase: restrict positions pivot-1 .. 0 *)
    let lower = ref (f card.(pivot)) in
    for i = pivot - 1 downto 0 do
      let m, c = up_cost csteps.(i + 1).cedge ~u:(f card.(i)) ~l:!lower in
      up_meth.(i) <- m;
      cost := !cost +. c;
      lower := f (min sfx.(i) card.(i))
    done;
    (* anchor: one upper (the root or the context) against S_0 *)
    let m, c =
      down_cost csteps.(0).cedge ~u:1.
        ~l:(f (if pivot = 0 then card.(0) else min sfx.(0) card.(0)))
        ~out:(f est.(0)) ~lower_is_postings:(pivot = 0)
    in
    down_meth.(0) <- m;
    cost := !cost +. c;
    (* down phase: propagate D_1 .. D_{n-1} *)
    for i = 1 to n - 1 do
      let lower_is_postings = i >= pivot in
      let l =
        if lower_is_postings then f card.(i) else f (min sfx.(i) card.(i))
      in
      let m, c =
        down_cost csteps.(i).cedge ~u:(f est.(i - 1)) ~l ~out:(f est.(i))
          ~lower_is_postings
      in
      down_meth.(i) <- m;
      cost := !cost +. c
    done;
    match !best with
    | Some (_, bc) when bc <= !cost -> ()
    | _ -> best := Some ((pivot, up_meth, down_meth), !cost)
  done;
  match !best with
  | None -> None
  | Some ((pivot, up_meth, down_meth), cost) ->
    if eng_cost < cost then None
    else
      Some
        (Chain
           {
             cabs = absolute;
             csteps;
             card;
             est;
             pivot;
             up_meth;
             down_meth;
             ccost = cost;
           })

(* ------------------------------------------------------------------ *)
(* Whole-path and union planning                                       *)
(* ------------------------------------------------------------------ *)

let chain_prefix_refuted t (path : Ast.path) =
  let steps, _ = chain_of_steps path.Ast.steps in
  steps <> []
  &&
  let rec go frontier = function
    | [] -> false
    | s :: rest -> (
      match gstep frontier s with [] -> true | fr -> go fr rest)
  in
  go (start_frontier t) steps

let path_refuted t (path : Ast.path) =
  chain_prefix_refuted t path
  ||
  match Twig.of_xpath path with
  | Some tw -> not (twig_sat t (Twig.pattern tw))
  | None -> false

let est_of_steps t ~use_guide steps =
  if not use_guide then -1
  else
    sum_counts
      (List.fold_left (fun fr s -> gstep fr s) (start_frontier t) steps)

let plan_path t ~use_guide (path : Ast.path) : plan =
  if use_guide && path_refuted t path then
    Empty
      (Printf.sprintf "no label path of the document can satisfy %s"
         (Ast.path_to_string path))
  else
    let steps, pure = chain_of_steps path.Ast.steps in
    let eng_cost = engine_cost_union t [ path ] in
    let chain_plan =
      if pure && steps <> [] then
        plan_chain t ~use_guide ~absolute:path.Ast.absolute steps ~eng_cost
      else None
    in
    match chain_plan with
    | Some p -> p
    | None -> (
      match Twig.of_xpath path with
      | Some tw ->
        let tc = twig_cost t tw in
        if tc < eng_cost then
          TwigJoin
            {
              twig = tw;
              tabs = path.Ast.absolute;
              t_est = est_of_steps t ~use_guide (spine_steps (Twig.pattern tw));
              tcost = tc;
            }
        else Fallback [ path ]
      | None -> Fallback [ path ])

let plan_union t ~use_guide (u : Ast.union_path) : plan =
  match u with
  | [ p ] -> plan_path t ~use_guide p
  | ps ->
    if use_guide then begin
      (* Drop provably-empty branches; engine-evaluate the survivors. *)
      match List.filter (fun p -> not (path_refuted t p)) ps with
      | [] ->
        Empty "no label path of the document can satisfy any union branch"
      | alive -> Fallback alive
    end
    else Fallback ps

(* ------------------------------------------------------------------ *)
(* Plan cache                                                          *)
(* ------------------------------------------------------------------ *)

type cache_outcome = Hit | Miss | Bypass

let cache_outcome_name = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Bypass -> "bypass"

(* Rooted plans are cacheable: the key pairs the guide's structural
   fingerprint with the canonical query text, so value/count drift keeps
   plans live and any structural change orphans them.  Non-root contexts
   plan fresh (cheap — the documents behind ad-hoc contexts are planned
   without the guide anyway). *)
let plan_for t ?context ?key (u : Ast.union_path) =
  let use_guide = rooted t context in
  if not use_guide then (plan_union t ~use_guide u, Bypass)
  else
    match t.shared.cache with
    | None -> (plan_union t ~use_guide u, Bypass)
    | Some cache -> (
      let key =
        match key with Some k -> k | None -> Xparser.canonical_opt u
      in
      match key with
      | None -> (plan_union t ~use_guide u, Bypass)
      | Some key -> (
        let fingerprint = G.fingerprint t.guide in
        match Plan_cache.find cache ~fingerprint key with
        | Some p -> (p, Hit)
        | None ->
          let p = plan_union t ~use_guide u in
          Plan_cache.add cache ~fingerprint key p;
          (p, Miss)))

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

type trace_row = {
  row_op : string;
  row_est : int;  (* -1: no estimate *)
  row_actual : int;
  row_ms : float;
}

(* Join kernels pass node sets as ascending preorder ranks of the
   [Doc_index]: [len] ranks, held in the first cells of [r].  A posting
   array is one without a copy.  Every kernel reads its inputs in rank
   order and writes a fresh set sized by its inputs or its output, never
   by the document; ranks turn back into nodes only when the answer is
   handed out.  A plan's last set may hold fewer cells than [len] (see
   [buf]). *)
type ranks = { r : int array; len : int }

let of_array a = { r = a; len = Array.length a }
let no_ranks = of_array [||]

(* A kernel's output buffer.  Sized at the kernel's output bound it never
   grows; sized below it, it doubles as needed.  Past [keep] entries it
   only counts: a plan's last operator stores no more ranks than its
   caller turns into nodes — none for a count. *)
type buf = { mutable a : int array; mutable n : int; keep : int }

let buf ?(keep = max_int) cap =
  { a = Array.make (max (min cap keep) 4) 0; n = 0; keep }

let push b x =
  if b.n < b.keep then begin
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x
  end;
  b.n <- b.n + 1

let contents b = { r = b.a; len = b.n }

(* Ranks that arrive mostly ascending: one above the last kept extends the
   run, a repeat of it is dropped, and anything lower waits in [late] to
   be sorted and merged in at the end.  Only matches nested inside earlier
   ones arrive late, so the sort covers those alone. *)
type collector = { run : buf; late : buf }

let collector cap = { run = buf cap; late = buf 0 }

let collect c x =
  let n = c.run.n in
  if n = 0 || x > c.run.a.(n - 1) then push c.run x
  else if x < c.run.a.(n - 1) then push c.late x

let collected c =
  if c.late.n = 0 then contents c.run
  else begin
    let late = Array.sub c.late.a 0 c.late.n in
    Array.sort Int.compare late;
    let run = c.run.a and rn = c.run.n and ln = Array.length late in
    let out = buf (rn + ln) in
    let i = ref 0 and j = ref 0 in
    while !i < rn || !j < ln do
      let x =
        if !j >= ln || (!i < rn && run.(!i) <= late.(!j)) then begin
          incr i;
          run.(!i - 1)
        end
        else begin
          incr j;
          late.(!j - 1)
        end
      in
      if out.n = 0 || out.a.(out.n - 1) <> x then push out x
    done;
    contents out
  end

(* S_i going up, child edge: the [tag] parents of [lows]. *)
let up_child idx ~tag lows =
  let o = Doc_index.order idx in
  let c = collector lows.len in
  for i = 0 to lows.len - 1 do
    let p = O.parent o lows.r.(i) in
    if p >= 0 && O.has_tag o p tag then collect c p
  done;
  collected c

let reverse a i j =
  let i = ref i and j = ref j in
  while !i < !j do
    let x = a.(!i) in
    a.(!i) <- a.(!j);
    a.(!j) <- x;
    incr i;
    decr j
  done

(* S_i going up, descendant edge by probing: the [tag] ancestors of
   [lows].  An ancestor ranked below the previous low is that low's
   ancestor too, so an earlier walk already met it: each walk stops there,
   no node is visited twice, and each walk's finds, reversed out of their
   deepest-first order, extend the output in rank order. *)
let up_desc_probe idx ~tag lows =
  let o = Doc_index.order idx in
  let b = buf lows.len in
  let prev = ref (-1) in
  for i = 0 to lows.len - 1 do
    let l = lows.r.(i) in
    let first = b.n in
    let a = ref (O.parent o l) in
    while !a > !prev do
      if O.has_tag o !a tag then push b !a;
      a := O.parent o !a
    done;
    if !a >= 0 && !a = !prev && O.has_tag o !a tag then push b !a;
    reverse b.a first (b.n - 1);
    prev := l
  done;
  contents b

(* Semijoin, descendant edge: the uppers with a strict descendant in
   [lows].  The first low past an upper is the only witness worth testing,
   and that pointer only moves forward: one linear sweep, no stack. *)
let keep_desc idx ~uppers lows =
  let o = Doc_index.order idx in
  let b = buf uppers.len in
  let i = ref 0 and j = ref 0 in
  while !i < uppers.len && !j < lows.len do
    let u = uppers.r.(!i) in
    while !j < lows.len && lows.r.(!j) <= u do
      incr j
    done;
    if !j < lows.len && lows.r.(!j) <= O.last o u then
      push b u;
    incr i
  done;
  contents b

(* The child-edge sweep (stack-tree): lows in rank order against an array
   stack of the uppers whose subtrees hold the current low, innermost on
   top.  A low's parent is its innermost ancestor, so it is an upper
   exactly when it tops the stack; [hit i l] then reports upper [i] and low
   [l]. *)
let child_sweep idx ~uppers lows hit =
  let o = Doc_index.order idx in
  let stack = buf 8 in
  let top_end () = O.last o uppers.r.(stack.a.(stack.n - 1)) in
  let i = ref 0 in
  for j = 0 to lows.len - 1 do
    let l = lows.r.(j) in
    while !i < uppers.len && uppers.r.(!i) < l do
      let u = uppers.r.(!i) in
      while stack.n > 0 && top_end () < u do
        stack.n <- stack.n - 1
      done;
      push stack !i;
      incr i
    done;
    while stack.n > 0 && top_end () < l do
      stack.n <- stack.n - 1
    done;
    if stack.n > 0 then begin
      let top = stack.a.(stack.n - 1) in
      if uppers.r.(top) = O.parent o l then hit top l
    end
  done

(* Semijoin, child edge: the uppers with a child in [lows]. *)
let keep_child idx ~uppers lows =
  let hit = Bytes.make uppers.len '\000' in
  let kept = ref 0 in
  child_sweep idx ~uppers lows (fun i _ ->
      if Bytes.get hit i = '\000' then begin
        Bytes.set hit i '\001';
        incr kept
      end);
  let b = buf !kept in
  for i = 0 to uppers.len - 1 do
    if Bytes.get hit i <> '\000' then push b uppers.r.(i)
  done;
  contents b

(* D_i going down, child edge by probing: the lows whose parent is an
   upper. *)
let down_child_probe ?keep idx ~uppers lows =
  let b = buf ?keep lows.len in
  child_sweep idx ~uppers lows (fun _ l -> push b l);
  contents b

(* D_i going down, child edge by walking: each upper's [tag] children.  A
   first child's key is the next after its parent's and each next
   sibling's the next after the previous subtree, so the walk reads keys
   straight from the index.  Children of an upper nested in an earlier one
   arrive late. *)
let down_child_walk idx ~uppers ~tag =
  let o = Doc_index.order idx in
  let c = collector uppers.len in
  for i = 0 to uppers.len - 1 do
    let u = uppers.r.(i) in
    let last = O.last o u in
    let k = ref (O.next o u) in
    while !k >= 0 && !k <= last do
      if O.has_tag o !k tag then collect c !k;
      k := O.next o (O.last o !k)
    done
  done;
  collected c

(* D_i going down, descendant edge by merging: the lows below some upper —
   one sweep carrying the furthest subtree end of the uppers passed. *)
let down_desc_merge ?keep idx ~uppers lows =
  let o = Doc_index.order idx in
  let b = buf ?keep lows.len in
  let i = ref 0 and maxend = ref (-1) in
  for j = 0 to lows.len - 1 do
    let l = lows.r.(j) in
    while !i < uppers.len && uppers.r.(!i) < l do
      let e = O.last o uppers.r.(!i) in
      if e > !maxend then maxend := e;
      incr i
    done;
    if l <= !maxend then push b l
  done;
  contents b

(* D_i going down, descendant edge by range: each upper's span of the
   [tag] postings, found by binary search.  Uppers ascend, and a nested
   upper's span lies inside its ancestor's, so clipping each span at the
   previous one's end yields the answer in rank order without duplicates;
   the spans (up to [keep] ranks of them) are then copied out in one
   exact-size array. *)
let down_desc_range ?(keep = max_int) idx ~uppers ~tag =
  let o = Doc_index.order idx in
  let post = Doc_index.postings idx tag in
  let spans = buf (2 * uppers.len) in
  let covered = ref 0 and total = ref 0 in
  for i = 0 to uppers.len - 1 do
    let u = uppers.r.(i) in
    let lo = Doc_index.lower_bound post ~lo:!covered (u + 1) in
    let hi = Doc_index.lower_bound post ~lo (O.last o u + 1) in
    if lo < hi then begin
      push spans lo;
      push spans hi;
      total := !total + (hi - lo);
      covered := hi
    end
  done;
  if !total = Array.length post then of_array post
  else begin
    let out = Array.make (min !total keep) 0 in
    let k = ref 0 and s = ref 0 in
    while !k < Array.length out do
      let lo = spans.a.(2 * !s) and hi = spans.a.((2 * !s) + 1) in
      let m = min (hi - lo) (Array.length out - !k) in
      Array.blit post lo out !k m;
      k := !k + m;
      incr s
    done;
    { r = out; len = !total }
  end

let now_ms () = Unix.gettimeofday () *. 1000.

(* One operator of a plan.  Under EXPLAIN ([trace] given) it is timed and
   leaves a row — label, estimate, actual count; otherwise it just runs,
   and neither the label nor the count is computed. *)
let timed trace label est size f =
  match trace with
  | None -> f ()
  | Some rows ->
    let t0 = now_ms () in
    let out = f () in
    let ms = now_ms () -. t0 in
    rows :=
      { row_op = label (); row_est = est; row_actual = size out; row_ms = ms }
      :: !rows;
    out

let op trace label est f = timed trace label est (fun rs -> rs.len) f

(* D_0: the first position's candidates that stand in [edge] to the start
   node.  Every element strictly descends from the document node. *)
let anchor ?keep t start edge s0 =
  if edge = Descendant && start == R2.root t.r2 && t.doc_rooted then s0
  else
    let uppers = of_array [| Doc_index.key t.index start |] in
    match edge with
    | Child -> down_child_probe ?keep t.index ~uppers s0
    | Descendant -> down_desc_merge ?keep t.index ~uppers s0

(* [keep] bounds the ranks the last operator stores ([buf]). *)
let run_chain t ?context ch ~trace ~keep =
  let idx = t.index in
  let n = Array.length ch.csteps in
  let keep_at i = if i = n - 1 then keep else max_int in
  let postings i = of_array (Doc_index.postings idx ch.csteps.(i).ctag) in
  let start =
    match context with
    | Some c when not ch.cabs -> c
    | _ -> R2.root t.r2
  in
  (* up phase *)
  let s = Array.make n no_ranks in
  s.(ch.pivot) <-
    op trace
      (fun () -> Printf.sprintf "scan postings(%s)" ch.csteps.(ch.pivot).ctag)
      ch.card.(ch.pivot)
      (fun () -> postings ch.pivot);
  for i = ch.pivot - 1 downto 0 do
    let edge = ch.csteps.(i + 1).cedge in
    let tag = ch.csteps.(i).ctag in
    let meth = ch.up_meth.(i) in
    s.(i) <-
      op trace
        (fun () ->
          Printf.sprintf "up-join %s::%s (%s)" (edge_name edge) tag
            (jmethod_name (match edge with Child -> Probe | Descendant -> meth)))
        (-1)
        (fun () ->
          match (edge, meth) with
          | Child, _ -> up_child idx ~tag s.(i + 1)
          | Descendant, Merge -> keep_desc idx ~uppers:(postings i) s.(i + 1)
          | Descendant, _ -> up_desc_probe idx ~tag s.(i + 1))
  done;
  (* anchor D_0 at the start node *)
  let e0 = ch.csteps.(0).cedge in
  let d0 =
    op trace
      (fun () ->
        Printf.sprintf "anchor %s::%s" (edge_name e0) ch.csteps.(0).ctag)
      ch.est.(0)
      (fun () -> anchor ~keep:(keep_at 0) t start e0 s.(0))
  in
  (* down phase *)
  let d = ref d0 in
  for i = 1 to n - 1 do
    let edge = ch.csteps.(i).cedge and tag = ch.csteps.(i).ctag in
    let lows () = if i <= ch.pivot then s.(i) else postings i in
    let meth = ch.down_meth.(i) in
    let uppers = !d in
    d :=
      op trace
        (fun () ->
          Printf.sprintf "down-join %s::%s (%s)" (edge_name edge) tag
            (jmethod_name meth))
        ch.est.(i)
        (fun () ->
          match (edge, meth) with
          | Child, Walk -> down_child_walk idx ~uppers ~tag
          | Child, _ -> down_child_probe ~keep:(keep_at i) idx ~uppers (lows ())
          | Descendant, Range ->
            down_desc_range ~keep:(keep_at i) idx ~uppers ~tag
          | Descendant, _ ->
            down_desc_merge ~keep:(keep_at i) idx ~uppers (lows ()))
  done;
  !d

(* Native twig execution: the same rank-array joins as chains, arranged
   over the pattern tree.  Bottom-up, [solve] restricts each pattern node's
   postings to candidates that can embed everything below them — each
   branch and the spine continuation are one semijoin (the child sweep
   for child edges, the forward-pointer sweep for descendant edges).
   Top-down, matches propagate from the anchor along the spine only;
   branches are existential and were fully discharged going up.  Both
   phases preserve rank order, so the output is in document order. *)
type solved = {
  s_ranks : ranks;
  s_spine : (Twig.pattern * solved) option;
}

let twig_edge_name (p : Twig.pattern) =
  match p.Twig.edge with Twig.Child -> "child" | Twig.Descendant -> "desc"

let run_twig t ?context ~trace ~keep ~tabs ~t_est tw =
  let idx = t.index in
  let rec solve (p : Twig.pattern) =
    let below =
      List.map (fun b -> (b, solve b)) p.Twig.branches
      @ (match p.Twig.spine with Some sp -> [ (sp, solve sp) ] | None -> [])
    in
    let cands =
      op trace
        (fun () ->
          Printf.sprintf "twig-up %s [%d joins]" p.Twig.tag (List.length below))
        (Doc_index.cardinality idx p.Twig.tag)
        (fun () ->
          List.fold_left
            (fun uppers ((c : Twig.pattern), s) ->
              match c.Twig.edge with
              | Twig.Child -> keep_child idx ~uppers s.s_ranks
              | Twig.Descendant -> keep_desc idx ~uppers s.s_ranks)
            (of_array (Doc_index.postings idx p.Twig.tag))
            below)
    in
    {
      s_ranks = cands;
      s_spine =
        (match p.Twig.spine with
        | Some sp -> Some (sp, List.assq sp below)
        | None -> None);
    }
  in
  let pat = Twig.pattern tw in
  let s0 = solve pat in
  let start =
    match context with
    | Some c when not tabs -> c
    | _ -> R2.root t.r2
  in
  let d0 =
    op trace
      (fun () ->
        Printf.sprintf "twig-anchor %s::%s" (twig_edge_name pat) pat.Twig.tag)
      (if s0.s_spine = None then t_est else -1)
      (fun () ->
        let keep = if s0.s_spine = None then keep else max_int in
        anchor ~keep t start (twig_edge pat) s0.s_ranks)
  in
  let rec down d s =
    match s.s_spine with
    | None -> d
    | Some ((sp : Twig.pattern), ssub) ->
      let d' =
        op trace
          (fun () ->
            Printf.sprintf "twig-down %s::%s" (twig_edge_name sp) sp.Twig.tag)
          (if ssub.s_spine = None then t_est else -1)
          (fun () ->
            let keep = if ssub.s_spine = None then keep else max_int in
            match sp.Twig.edge with
            | Twig.Child -> down_child_probe ~keep idx ~uppers:d ssub.s_ranks
            | Twig.Descendant ->
              down_desc_merge ~keep idx ~uppers:d ssub.s_ranks)
      in
      down d' ssub
  in
  down d0 s0

let bump t = function
  | Empty _ -> Atomic.incr t.shared.counters.pruned_runs
  | Chain _ -> Atomic.incr t.shared.counters.chain_runs
  | TwigJoin _ -> Atomic.incr t.shared.counters.twig_runs
  | Fallback _ -> Atomic.incr t.shared.counters.engine_runs

(* A plan's answer: join plans end in ranks, the evaluator in nodes. *)
type answer = Ranks of ranks | Nodes of Dom.t list

let run_plan t ?context ?(keep = max_int) ~trace p =
  bump t p;
  match p with
  | Empty reason ->
    Ranks
      (op trace
         (fun () -> Printf.sprintf "guide-refute (%s)" reason)
         0
         (fun () -> no_ranks))
  | Chain ch -> Ranks (run_chain t ?context ch ~trace ~keep)
  | TwigJoin { twig; tabs; t_est; _ } ->
    Ranks (run_twig t ?context ~trace ~keep ~tabs ~t_est twig)
  | Fallback u ->
    Nodes
      (timed trace
         (fun () -> "engine (full evaluator)")
         (-1) List.length
         (fun () -> Eval.select_union t.engine ?context u))

let answer_count = function Ranks rs -> rs.len | Nodes l -> List.length l

(* The first [k] answers as nodes: only those ranks are converted (and
   only those were kept, when the plan ran with [keep = k]). *)
let answer_nodes t ?(k = max_int) = function
  | Nodes l -> if k = max_int then l else List.filteri (fun i _ -> i < k) l
  | Ranks rs ->
    let o = Doc_index.order t.index in
    let acc = ref [] in
    for i = min k rs.len - 1 downto 0 do
      acc := O.node o rs.r.(i) :: !acc
    done;
    !acc

(* ------------------------------------------------------------------ *)
(* Public entry points                                                 *)
(* ------------------------------------------------------------------ *)

let plan t ?context src = fst (plan_for t ?context (Xparser.parse_union src))

let execute t ?context ?key ?keep u =
  run_plan t ?context ?keep ~trace:None (fst (plan_for t ?context ?key u))

let select_union t ?context u = answer_nodes t (execute t ?context u)

let count_union t ?context ?key u =
  answer_count (execute t ?context ?key ~keep:0 u)

let select_first t ?context ?key ~k u =
  let a = execute t ?context ?key ~keep:k u in
  (answer_count a, answer_nodes t ~k a)

let query t ?context src = select_union t ?context (Xparser.parse_union src)

let cost_of = function
  | Empty _ -> 0.
  | Chain c -> c.ccost
  | TwigJoin tj -> tj.tcost
  | Fallback _ -> Float.nan

let describe p =
  match p with
  | Empty reason -> Printf.sprintf "guide-pruned: %s" reason
  | Chain ch ->
    let b = Buffer.create 64 in
    Buffer.add_string b
      (Printf.sprintf "chain-join pivot=%s" ch.csteps.(ch.pivot).ctag);
    Array.iteri
      (fun i s ->
        Buffer.add_string b
          (Printf.sprintf " %s%s"
             (match s.cedge with Child -> "/" | Descendant -> "//")
             s.ctag);
        if i = ch.pivot then Buffer.add_char b '*')
      ch.csteps;
    Buffer.contents b
  | TwigJoin { twig; _ } ->
    let rec pat (p : Twig.pattern) =
      Printf.sprintf "%s%s%s%s"
        (match p.Twig.edge with Twig.Child -> "/" | Twig.Descendant -> "//")
        p.Twig.tag
        (String.concat ""
           (List.map (fun b -> "[" ^ pat b ^ "]") p.Twig.branches))
        (match p.Twig.spine with None -> "" | Some sp -> pat sp)
    in
    "twig-join " ^ pat (Twig.pattern twig)
  | Fallback u -> "engine-fallback " ^ Ast.union_to_string u

let explain t ?context src =
  let u = Xparser.parse_union src in
  let p, outcome = plan_for t ?context u in
  let trace = ref [] in
  let t0 = now_ms () in
  let out = run_plan t ?context ~trace:(Some trace) p in
  let total_ms = now_ms () -. t0 in
  let b = Buffer.create 256 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "query: %s\n" src;
  pf "normalized: %s\n" (Xparser.normalize src);
  pf "strategy: %s\n" (kind_name (kind p));
  pf "plan: %s\n" (describe p);
  let ec = engine_cost_union t u in
  (match p with
  | Fallback _ | Empty _ -> pf "cost: engine=%.1f\n" ec
  | _ -> pf "cost: plan=%.1f engine=%.1f\n" (cost_of p) ec);
  pf "plan-cache: %s  guide-fingerprint: 0x%x\n"
    (cache_outcome_name outcome)
    (G.fingerprint t.guide);
  pf "%-44s %10s %10s %9s\n" "operator" "est" "actual" "ms";
  List.iter
    (fun r ->
      pf "%-44s %10s %10d %9.3f\n" r.row_op
        (if r.row_est < 0 then "-" else string_of_int r.row_est)
        r.row_actual r.row_ms)
    (List.rev !trace);
  pf "result: %d node(s) in %.3f ms\n" (answer_count out) total_ms;
  Buffer.contents b
