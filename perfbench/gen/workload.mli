(** Seeded designs for the benchmark's workloads.

    Every design is a function of its size and a seed only; the checker
    receives nothing but the CIF text printed from it.  Each design is
    salted with {!Layoutgen.Inject} defects whose ground truth comes
    back alongside, so a run can count missed and false findings. *)

type kind =
  | Pla_hier  (** hierarchical PLA, checked cold *)
  | Blocks_hier  (** five-level [grid_blocks] array, checked cold *)
  | Pla_edit  (** hierarchical PLA, rechecked over a disk cache after a one-crosspoint edit *)

val name : kind -> string
val of_name : string -> kind option

(** [pla_hier ~lambda program] — the plane of {!Layoutgen.Pla.plane}
    with each product row made into its own symbol (id [1000 + r],
    name [row<r>]) and TOP placing the rows.  Same labels, same
    crosspoint cells, same chip coordinates as the flat plane. *)
val pla_hier : lambda:int -> bool array array -> Cif.Ast.file

(** [salt_pla ~lambda ~seed program file] appends the
    {!Layoutgen.Inject.standard_batch} beside the plane of [program],
    at a seeded height. *)
val salt_pla :
  lambda:int -> seed:int -> bool array array -> Cif.Ast.file ->
  Cif.Ast.file * Dic.Classify.truth list

(** [blocks ~lambda ~seed ~nx ~ny] — {!Layoutgen.Cells.grid_blocks}
    salted with the standard batch beside the array and a VDD-GND
    strap on a seeded cell. *)
val blocks :
  lambda:int -> seed:int -> nx:int -> ny:int -> Cif.Ast.file * Dic.Classify.truth list

(** [edits ~rows ~cols ~seed n] — [n] distinct crosspoints, drawn from
    the seed alone; a longer draw extends a shorter one.  Flipping any
    one of them in a program yields a row no earlier edit produced.
    @raise Invalid_argument if [n > rows * cols]. *)
val edits : rows:int -> cols:int -> seed:int -> int -> (int * int) list

(** [flip program (r, c)] — a copy of [program] with one crosspoint
    toggled. *)
val flip : bool array array -> int * int -> bool array array
