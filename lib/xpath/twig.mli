(** Twig (branching path) patterns: the shape behind XPath steps with
    structural predicates, e.g. [//item[name][description//text]/payment].

    A twig is a tree of (tag, edge) nodes — edges are child or descendant.
    {!Planner} compiles a twig-fragment query into one and runs it as
    rank-array semijoins over the pattern tree (bottom-up over the
    branches and the spine, then top-down along the spine); the result is
    the match set of the {e output} node, the last spine step of the
    originating XPath. *)

type edge = Child | Descendant

type pattern = {
  tag : string;
  edge : edge;  (** relation to the pattern parent (or to the context for
                    the root) *)
  branches : pattern list;  (** structural predicates *)
  spine : pattern option;  (** continuation of the extraction path *)
}

type t

val pattern : t -> pattern

val of_xpath : Ast.path -> t option
(** Compile an XPath whose steps are child/descendant name tests and whose
    predicates are (conjunctions of) relative child/descendant name-test
    paths — the twig fragment.  [None] for anything else. *)
