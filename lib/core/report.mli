(** Violation reporting for the checker.

    The paper's Fig 1 frames DRC quality as three regions: real errors
    flagged, real errors missed, and false errors.  Reports here carry
    enough context (stage, rule family, location, instance path) for
    {!Classify} to compute those regions against a ground-truth
    journal. *)

type severity = Error | Warning | Info

(** The six pipeline stages of the paper's Fig 10 flow chart, plus the
    structured-design integrity checks and electrical rules. *)
type stage =
  | Parse_stage
  | Elements  (** "check elements" — interconnect width *)
  | Devices  (** "check primitive symbols" *)
  | Connections  (** "check legal connections" — skeletal connectivity *)
  | Netlist_gen  (** "generate hierarchical net list" *)
  | Interactions  (** "check interactions" — spacing matrix *)
  | Integrity  (** structured-design usage rules *)
  | Electrical  (** non-geometric construction rules *)

type violation = {
  stage : stage;
  rule : string;  (** dotted rule id, e.g. "width.NP", "device.gate-overhang" *)
  severity : severity;
  where : Geom.Rect.t option;  (** in the coordinates of [context] *)
  context : string;  (** the symbol definition the check ran in *)
  path : string option;
      (** full dotted instance path from the defining symbol down to
          the geometry, e.g. ["TOP.inv[3].contact[0]"]; [None] when the
          violation is not tied to a deeper instance (then [context] is
          the whole path) *)
  loc : Cif.Loc.t option;
      (** CIF source position of the offending statement, when the
          design came from parsed text — the "symbol origin … is never
          lost" promise extended back to the file *)
  message : string;
}

type t = { violations : violation list }

val empty : t
val add : t -> violation -> t
val concat : t list -> t
val count : ?severity:severity -> t -> int
val errors : t -> violation list
val by_stage : t -> stage -> violation list

(** Violations whose rule id starts with the given prefix. *)
val by_rule_prefix : t -> string -> violation list

(** The checker's 0/1 exit policy for one report: 1 when it has errors,
    or warnings under [werror], or [lint.*] findings under
    [lint_werror]; 0 otherwise.  (Usage, parse and input failures exit
    2 before any report exists.) *)
val exit_code : werror:bool -> lint_werror:bool -> t -> int

val stage_name : stage -> string

(** [path] when present, else [context]: the most precise logical
    location known for the violation. *)
val instance_path : violation -> string

val pp_violation : Format.formatter -> violation -> unit
val pp : Format.formatter -> t -> unit

(** Helper constructors. *)

val error :
  stage:stage -> rule:string -> ?where:Geom.Rect.t -> context:string ->
  ?path:string -> ?loc:Cif.Loc.t -> string -> violation

val warning :
  stage:stage -> rule:string -> ?where:Geom.Rect.t -> context:string ->
  ?path:string -> ?loc:Cif.Loc.t -> string -> violation

val info :
  stage:stage -> rule:string -> ?where:Geom.Rect.t -> context:string ->
  ?path:string -> ?loc:Cif.Loc.t -> string -> violation
