(** Cost-based query planner over the numbering-scheme substrate.

    Compiles an XPath union into an explicit physical plan and executes
    it.  The plan space (Section 3.5 strategies lifted from single steps
    to whole paths):

    - {b guide-pruned} ([Empty]): the {!Rsummary.Dataguide} refutes every
      label path the query could take — answered in O(guide) without
      touching a posting list.  Refutation is purely structural (a label
      path or twig shape the document cannot realize), never based on
      occurrence counts, so cached pruned plans stay sound under count
      drift.
    - {b chain-join} ([Chain]): a pure child/descendant name-test path is
      evaluated as a pipeline of structural joins over the rank-sorted tag
      postings of {!Doc_index}.  The planner enumerates pivot positions
      (which tag's postings seed the pipeline), picks a physical method
      per join (pointer probe, linear rank-merge, binary-searched posting
      ranges, child walk) from posting cardinalities and DataGuide
      occurrence counts, and keeps the cheapest pipeline.
    - {b twig-join} ([TwigJoin]): branching patterns in the twig fragment
      ({!Twig.of_xpath}) run as the same rank-array semijoins arranged over
      the pattern tree, when their cost estimate beats the evaluator's.
    - {b engine-fallback} ([Fallback]): everything else — rare axes,
      positional or value predicates — runs on the shared {!Engine_ruid}
      evaluator.  Unions plan per branch: provably-empty branches are
      dropped, survivors are fielded to the evaluator.

    Rooted plans are cached in a {!Plan_cache} keyed by (DataGuide
    structural fingerprint, canonical query text) — never by snapshot
    version, so pure value/count churn keeps compiled plans live. *)

type edge = Child | Descendant

val edge_name : edge -> string

(** Physical method for one structural join of a chain pipeline.  Every
    method reads and writes ascending rank arrays of {!Doc_index}. *)
type jmethod =
  | Probe
      (** parent/ancestor pointer chase per node: up a child edge, parents
          collected in rank order (the nested few sorted in); up a
          descendant edge, ancestor walks that stop where the previous
          node's walk began; down a child edge, each node's parent tested
          against the top of an array stack of the open uppers *)
  | Merge
      (** one linear rank sweep: up, a forward pointer to each upper's
          first following node; down, the furthest subtree end so far *)
  | Range  (** binary-searched posting spans per upper extent (down only) *)
  | Walk
      (** step through each upper's children by subtree ends and test the
          tag (down/child only) *)

val jmethod_name : jmethod -> string

type cstep = { cedge : edge; ctag : string }

type chain = {
  cabs : bool;  (** anchored at the root rather than the context *)
  csteps : cstep array;
  card : int array;  (** posting cardinality per position at plan time *)
  est : int array;  (** guide output estimate per position; -1 unknown *)
  pivot : int;  (** position whose postings seed the pipeline *)
  up_meth : jmethod array;  (** method per up-phase join, slots [< pivot] *)
  down_meth : jmethod array;  (** method per down-phase join; slot 0 anchors *)
  ccost : float;
}

type plan =
  | Empty of string  (** guide refutation: why nothing can match *)
  | Chain of chain
  | TwigJoin of { twig : Twig.t; tabs : bool; t_est : int; tcost : float }
  | Fallback of Ast.union_path

type kind = [ `Chain | `Twig | `Engine | `Pruned ]

val kind : plan -> kind
val kind_name : kind -> string

val describe : plan -> string
(** One-line plan rendering for EXPLAIN and logs. *)

(** {1 Shared state}

    One {!shared} value holds the plan cache and the per-strategy run
    counters; successive snapshots of one document pass it along so cache
    contents and counters survive {!advance}. *)

type shared

val make_shared : ?plan_cache:int -> unit -> shared
(** [plan_cache] is the cache capacity in plans (default 256); [<= 0]
    disables caching. *)

type stats = {
  chain : int;  (** queries executed as chain-joins *)
  twig : int;
  engine : int;
  pruned : int;
  cache_stats : Plan_cache.stats option;  (** [None] when caching is off *)
}

val shared_stats : shared -> stats

(** {1 Planner instances} *)

type t

val create : ?shared:shared -> Ruid.Ruid2.t -> t
(** Build every per-snapshot structure once: the {!Doc_index} (shared with
    the fallback engine), the evaluator, the DataGuide.  Fresh {!shared}
    state unless one is passed in. *)

val engine : t -> Eval.engine
(** The fallback evaluator (shares the planner's {!Doc_index}). *)

val index : t -> Doc_index.t

val shared_of : t -> shared
val guide : t -> Rsummary.Dataguide.t
val guide_fingerprint : t -> int

(** One structural update's effect on the guide: the label path of an
    inserted or deleted element (root label first). *)
type delta = Add of string list | Remove of string list

val advance : t -> Ruid.Ruid2.t -> deltas:delta list -> t
(** Planner for the next snapshot, [r2] being a later version of the
    numbering this planner reads: clone the guide, apply the deltas and
    prune (an inconsistent [Remove] forces a fresh guide build), derive
    the index with {!Doc_index.advance} (the postings of touched tags
    only), carry {!shared} over.  The previous planner is untouched —
    readers still holding the old snapshot keep a consistent view. *)

(** {1 Planning and execution} *)

type cache_outcome = Hit | Miss | Bypass

val cache_outcome_name : cache_outcome -> string

val plan_for :
  t -> ?context:Rxml.Dom.t -> ?key:string option -> Ast.union_path ->
  plan * cache_outcome
(** Plan a union.  Cached only for rooted evaluations (no context, or the
    context {e is} the root) with a canonically printable query; everything
    else plans fresh ([Bypass]).  [key] is the cache key when the caller
    already has it — {!Xparser.canonical_opt} of the union, so a request
    over many documents renders it once; by default it is computed here. *)

val plan : t -> ?context:Rxml.Dom.t -> string -> plan
(** Parse and plan. @raise Xparser.Syntax_error on malformed input. *)

val select_union :
  t -> ?context:Rxml.Dom.t -> Ast.union_path -> Rxml.Dom.t list
(** Plan and execute; results in document order, equal to
    {!Eval.select_union} on the fallback engine (property-tested). *)

val count_union :
  t -> ?context:Rxml.Dom.t -> ?key:string option -> Ast.union_path -> int
(** [List.length (select_union ...)], without building the node list: a
    join plan's answer is counted as ranks.  [key] as for {!plan_for}. *)

val select_first :
  t -> ?context:Rxml.Dom.t -> ?key:string option -> k:int ->
  Ast.union_path -> int * Rxml.Dom.t list
(** The answer's size and its first [k] nodes in document order; a join
    plan turns only those [k] ranks into nodes. *)

val query : t -> ?context:Rxml.Dom.t -> string -> Rxml.Dom.t list
(** Parse, plan, execute. @raise Xparser.Syntax_error on malformed input. *)

val explain : t -> ?context:Rxml.Dom.t -> string -> string
(** Execute with per-operator instrumentation and render the plan: chosen
    strategy, plan/engine cost estimates, cache outcome, guide
    fingerprint, and an operator table with estimated vs. actual
    cardinalities and wall-clock milliseconds.
    @raise Xparser.Syntax_error on malformed input. *)

(** {1 Internals exposed for tests and benches} *)

val chain_of_steps : Ast.step list -> cstep list * bool
(** Maximal chain prefix of a step list; the flag is true when the whole
    path is a predicate-free chain (plannable without the evaluator). *)

val engine_cost_union : t -> Ast.union_path -> float
