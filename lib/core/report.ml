type severity = Error | Warning | Info

type stage =
  | Parse_stage
  | Elements
  | Devices
  | Connections
  | Netlist_gen
  | Interactions
  | Integrity
  | Electrical

type violation = {
  stage : stage;
  rule : string;
  severity : severity;
  where : Geom.Rect.t option;
  context : string;
  path : string option;
  loc : Cif.Loc.t option;
  message : string;
}

type t = { violations : violation list }

let empty = { violations = [] }
let add t v = { violations = v :: t.violations }
let concat ts = { violations = List.concat_map (fun t -> t.violations) ts }

let count ?severity t =
  match severity with
  | None -> List.length t.violations
  | Some s -> List.length (List.filter (fun v -> v.severity = s) t.violations)

let errors t = List.filter (fun v -> v.severity = Error) t.violations
let by_stage t stage = List.filter (fun v -> v.stage = stage) t.violations

let by_rule_prefix t prefix =
  let n = String.length prefix in
  List.filter
    (fun v -> String.length v.rule >= n && String.sub v.rule 0 n = prefix)
    t.violations

let exit_code ~werror ~lint_werror t =
  if count ~severity:Error t > 0
     || (werror && count ~severity:Warning t > 0)
     || (lint_werror && by_rule_prefix t "lint." <> [])
  then 1
  else 0

let stage_name = function
  | Parse_stage -> "parse"
  | Elements -> "elements"
  | Devices -> "devices"
  | Connections -> "connections"
  | Netlist_gen -> "netlist"
  | Interactions -> "interactions"
  | Integrity -> "integrity"
  | Electrical -> "electrical"

let severity_name = function Error -> "error" | Warning -> "warning" | Info -> "info"

let instance_path v = match v.path with Some p -> p | None -> v.context

let pp_violation ppf v =
  Format.fprintf ppf "[%s/%s] %s: %s%s%s%s" (stage_name v.stage)
    (severity_name v.severity) v.rule v.message
    (match v.where with
    | None -> ""
    | Some r -> Format.asprintf " at %a" Geom.Rect.pp r)
    (let p = instance_path v in
     if p = "" then "" else " in " ^ p)
    (match v.loc with
    | None -> ""
    | Some l -> Format.asprintf " (cif %a)" Cif.Loc.pp l)

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list pp_violation)
    (List.rev t.violations)

let make severity ~stage ~rule ?where ~context ?path ?loc message =
  { stage; rule; severity; where; context; path; loc; message }

let error ~stage ~rule ?where ~context ?path ?loc message =
  make Error ~stage ~rule ?where ~context ?path ?loc message

let warning ~stage ~rule ?where ~context ?path ?loc message =
  make Warning ~stage ~rule ?where ~context ?path ?loc message

let info ~stage ~rule ?where ~context ?path ?loc message =
  make Info ~stage ~rule ?where ~context ?path ?loc message
