(** Parser for the XPath subset (lexing included).

    Supported syntax: absolute and relative location paths; all axes of
    {!Ast.axis} in explicit [axis::test] form; the abbreviations [//], [.],
    [..], [@name]; name, [*], [text()], [node()], [comment()] node tests;
    predicates with [or]/[and], the six comparison operators, numeric and
    string literals, [position()], [last()], [count(path)], [not(expr)],
    and nested relative paths. *)

exception Syntax_error of string

val parse : string -> Ast.path
(** @raise Syntax_error on malformed input (including union expressions —
    use {!parse_union} for those). *)

val parse_union : string -> Ast.union_path
(** Parse a ['|']-separated union of location paths (a single path yields
    a one-element union).
    @raise Syntax_error on malformed input. *)

val canonical_opt : Ast.union_path -> string option
(** A canonical rendering: fully parenthesized predicates, every
    abbreviation expanded to [axis::test].  Distinct canonical strings
    denote distinct queries, so the string is a sound cache key.  Verified
    by a parse round-trip; [None] when the AST holds something the lexer
    cannot re-read (e.g. a string literal containing both quote kinds). *)

val canonical : string -> string option
(** [canonical_opt] of the parsed text; [None] when it does not parse. *)

val normalize : string -> string
(** Canonicalize query text for cache keying: parse, render canonically,
    verify the round-trip.  Inputs that do not parse (or do not round-trip)
    fall back to whitespace-run collapse + trim.  Idempotent either way;
    spelling variants of one query ([//a[ b ]], [/descendant-or-self::
    node()/child::a[child::b]], …) normalize identically. *)
