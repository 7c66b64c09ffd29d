(* SARIF 2.1.0 emission as a {!Json.t}.

   The output is deterministic: rules are sorted by id, results keep
   report order, and no timestamps or absolute paths are embedded, so
   equal reports render to equal documents (the golden test relies on
   this). *)

let schema = "https://json.schemastore.org/sarif-2.1.0.json"

let level_of_severity = function
  | Report.Error -> "error"
  | Report.Warning -> "warning"
  | Report.Info -> "note"

(* The distinct rule ids of the report (and of any suppressed results
   riding along), sorted, with their index in the emitted [rules] array
   (results reference rules by id + index). *)
let rule_table ~suppressed (report : Report.t) =
  let ids =
    List.fold_left
      (fun acc (v : Report.violation) ->
        if List.mem v.Report.rule acc then acc else v.Report.rule :: acc)
      [] (report.Report.violations @ suppressed)
    |> List.sort String.compare
  in
  List.mapi (fun i id -> (id, i)) ids

(* The rules-file key a rule id is parameterised by, when there is one:
   [width.NP] reads [width_poly], [spacing.ND] reads [space_diffusion],
   [spacing.ND-NP] reads a directed [space_<a>_<b>] override or
   [space_poly_diffusion].  The mappings mirror
   {!Tech.Rules.min_width} / {!Tech.Rules.same_layer_space}. *)
let width_key = function
  | Tech.Layer.Diffusion -> "width_diffusion"
  | Tech.Layer.Poly | Tech.Layer.Implant -> "width_poly"
  | Tech.Layer.Metal -> "width_metal"
  | Tech.Layer.Contact | Tech.Layer.Buried | Tech.Layer.Glass -> "contact_size"

let space_key = function
  | Tech.Layer.Diffusion -> "space_diffusion"
  | Tech.Layer.Poly | Tech.Layer.Implant -> "space_poly"
  | Tech.Layer.Metal | Tech.Layer.Glass -> "space_metal"
  | Tech.Layer.Contact | Tech.Layer.Buried -> "space_contact"

(* [(key, line)] of the deck entry a rule id came from, when the deck
   was loaded from text and the id maps to a rules-file key. *)
let deck_position deck_rules id =
  let strip p =
    let n = String.length p in
    if String.length id > n && String.sub id 0 n = p then
      Some (String.sub id n (String.length id - n))
    else None
  in
  let with_pos key =
    Option.map (fun line -> (key, line)) (Tech.Rules.position deck_rules key)
  in
  let first_pos keys = List.find_map with_pos keys in
  match strip "width." with
  | Some cif ->
    Option.bind (Tech.Layer.of_cif cif) (fun l -> with_pos (width_key l))
  | None -> (
    match strip "spacing." with
    | None -> None
    | Some pair -> (
      match String.index_opt pair '-' with
      | None ->
        Option.bind (Tech.Layer.of_cif pair) (fun l -> with_pos (space_key l))
      | Some i -> (
        let ca = String.sub pair 0 i in
        let cb = String.sub pair (i + 1) (String.length pair - i - 1) in
        match (Tech.Layer.of_cif ca, Tech.Layer.of_cif cb) with
        | Some a, Some b ->
          let directed x y =
            Printf.sprintf "space_%s_%s" (Tech.Rules.layer_name x)
              (Tech.Rules.layer_name y)
          in
          first_pos [ directed a b; directed b a; "space_poly_diffusion" ]
        | _ -> None)))

let rule_json ?deck_rules (id, _index) =
  (* Lint rules carry their stable-code explanation; for everything
     else the rule family (prefix before the first dot) doubles as a
     short description, the full semantics living in the stage docs. *)
  let lint_explanation =
    if String.length id > 5 && String.sub id 0 5 = "lint." then
      Lint.explain (String.sub id 5 (String.length id - 5))
    else None
  in
  let desc =
    match lint_explanation with
    | Some text -> text
    | None ->
      let family = match String.index_opt id '.' with
        | Some i -> String.sub id 0 i
        | None -> id
      in
      family ^ " rule " ^ id
  in
  let deck_props =
    (* Point the rule back at its defining line in this run's deck, so
       a multi-deck SARIF log distinguishes which deck's parameter each
       run is enforcing. *)
    match Option.bind deck_rules (fun r -> deck_position r id) with
    | Some (key, line) ->
      [ ("properties",
         Json.Obj [ ("deckKey", Json.Str key); ("deckLine", Json.of_int line) ]) ]
    | None -> []
  in
  Json.Obj
    ([ ("id", Json.Str id); ("shortDescription", Json.Obj [ ("text", Json.Str desc) ]) ]
    @ deck_props)

let location_json ~uri (v : Report.violation) =
  (* Without a source position (programmatic AST) the artifact is
     still named, so viewers group results by file. *)
  let region =
    match v.Report.loc with
    | Some l ->
      [ ("region",
         Json.Obj
           [ ("startLine", Json.of_int l.Cif.Loc.line);
             ("startColumn", Json.of_int l.Cif.Loc.col) ]) ]
    | None -> []
  in
  Json.Obj
    [ ("physicalLocation",
       Json.Obj (("artifactLocation", Json.Obj [ ("uri", Json.Str uri) ]) :: region));
      ("logicalLocations",
       Json.Arr
         [ Json.Obj
             [ ("fullyQualifiedName", Json.Str (Report.instance_path v));
               ("kind", Json.Str "member") ] ]) ]

let result_json ?(suppressed = false) ~uri rules (v : Report.violation) =
  let rule_index = match List.assoc_opt v.Report.rule rules with Some i -> i | None -> -1 in
  let region_props =
    match v.Report.where with
    | None -> []
    | Some r ->
      (* Layout coordinates ride along as properties: SARIF regions are
         text-based, and [where] is geometry in [context]'s frame. *)
      [ ("properties",
         Json.Obj
           [ ("bboxX0", Json.of_int (Geom.Rect.x0 r)); ("bboxY0", Json.of_int (Geom.Rect.y0 r));
             ("bboxX1", Json.of_int (Geom.Rect.x1 r)); ("bboxY1", Json.of_int (Geom.Rect.y1 r)) ]) ]
  in
  let suppressions =
    (* A waived diagnostic is still a [result] — reviewers see what was
       silenced — but carries an [inSource] suppression (the waiver
       lives in the deck comment or the design's [4L] command), which
       SARIF viewers render as "suppressed" instead of open. *)
    if suppressed then
      [ ("suppressions", Json.Arr [ Json.Obj [ ("kind", Json.Str "inSource") ] ]) ]
    else []
  in
  Json.Obj
    ([ ("ruleId", Json.Str v.Report.rule); ("ruleIndex", Json.of_int rule_index);
       ("level", Json.Str (level_of_severity v.Report.severity));
       ("message", Json.Obj [ ("text", Json.Str v.Report.message) ]);
       ("locations", Json.Arr [ location_json ~uri v ]) ]
    @ region_props @ suppressions)

(* One [runs[]] entry.  With neither [automation_id] nor [deck_rules]
   it is exactly the historical single-run body — [of_report] output
   must not change shape.  Suppressed results follow the live ones, in
   report order. *)
let run_json ?automation_id ?deck_rules ?(suppressed = []) ~uri ~tool_version
    (report : Report.t) =
  let rules = rule_table ~suppressed report in
  let automation =
    match automation_id with
    | Some id -> [ ("automationDetails", Json.Obj [ ("id", Json.Str id) ]) ]
    | None -> []
  in
  Json.Obj
    (automation
    @ [ ("tool",
         Json.Obj
           [ ("driver",
              Json.Obj
                [ ("name", Json.Str "dicheck"); ("version", Json.Str tool_version);
                  ("informationUri", Json.Str "https://doi.org/10.1145/800139.804577");
                  ("rules", Json.Arr (List.map (rule_json ?deck_rules) rules)) ]) ]);
        ("results",
         Json.Arr
           (List.rev_map (result_json ~uri rules) report.Report.violations
           @ List.map (result_json ~suppressed:true ~uri rules) suppressed)) ])

let log ?(properties = []) runs =
  Json.Obj
    ([ ("$schema", Json.Str schema); ("version", Json.Str "2.1.0"); ("runs", Json.Arr runs) ]
    @ properties)

let of_report ?(uri = "design.cif") ?(tool_version = Version.version)
    ?(suppressed = []) (report : Report.t) =
  log [ run_json ~suppressed ~uri ~tool_version report ]

let of_reports ?(uri = "design.cif") ?(tool_version = Version.version)
    ?(suppressed = []) ?(relations = [])
    (decks : (string * Tech.Rules.t * Report.t) list) =
  let runs =
    List.map
      (fun (label, deck_rules, report) ->
        let suppressed =
          match List.assoc_opt label suppressed with Some vs -> vs | None -> []
        in
        run_json ~automation_id:label ~deck_rules ~suppressed ~uri ~tool_version report)
      decks
  in
  (* Deck-subsumption verdicts (R015) are cross-run facts, so they live
     in the log's properties bag, not in any single run's results. *)
  let properties =
    if relations = [] then []
    else
      [ ("properties",
         Json.Obj
           [ ("deckRelations", Json.Arr (List.map (fun l -> Json.Str l) relations)) ]) ]
  in
  log ~properties runs
