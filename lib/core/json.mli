(** The repository's one JSON value type, printer and parser.

    Every structured output is built as a {!t} and printed by
    {!to_string}: the metrics document ({!Metrics.to_json}), SARIF
    ({!Sarif.of_report}, {!Sarif.of_reports}), Chrome traces
    ({!Trace.chrome}), [dicheck serve] replies ({!Serve}), the event log
    and the bench's [BENCH_*.json] files.  String escaping, number
    formatting and separators therefore live here and nowhere else, and
    a serve reply embeds those documents as values.  The same module
    reads JSON: serve requests, the event-log replay and the tests.

    The parser accepts RFC 8259 JSON (objects, arrays, strings with
    escapes including [\uXXXX], numbers, booleans, null) and rejects
    trailing garbage.  The printer is canonical for a given value: no
    whitespace, object members in the order given, integers printed
    without a decimal point, other numbers in the shortest round-trip
    form (15 significant digits when that parses back to the same
    float, 17 otherwise).  Strings use the short escapes for quote,
    backslash, newline, carriage return, tab, backspace and form feed,
    [\u00XX] for the other control bytes, and pass bytes from [0x7f]
    up through unchanged. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** Parse one JSON document.  [Error msg] carries a byte offset. *)
val parse : string -> (t, string) result

val to_string : t -> string

(** [of_int n] is [Num (float_of_int n)]; it prints like [%d] for
    [|n| < 10^15]. *)
val of_int : int -> t

(** [quote s] is the JSON string literal for [s], including the
    surrounding double quotes. *)
val quote : string -> string

(** {1 Accessors}

    All return [None] on a type or key mismatch rather than raising. *)

val member : string -> t -> t option
val str : t -> string option
val num : t -> float option

(** [int] narrows {!num} to integral values (within [±1e9]); [None]
    for [2.5] rather than a silent truncation. *)
val int : t -> int option
val bool : t -> bool option
val arr : t -> t list option
