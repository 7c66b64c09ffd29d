(* dicheck: the Design Integrity and Immunity Checker, as a command.

   Three subcommands sharing one engine library:

     dicheck check FILE   (also the default: `dicheck FILE`)
     dicheck lint [FILE]  static lints only: rule deck + CIF hierarchy
     dicheck serve        concurrent JSON-lines daemon, stdio or socket

   `check` reads extended CIF, runs either the hierarchical checker or
   the classical flat baseline, and prints the report; with --cache DIR
   per-definition results and the interaction memo persist across
   invocations.  `serve` keeps engines warm in-process instead: a pool
   of worker domains (--workers) answers any number of concurrent
   clients (docs/PROTOCOL.md is the wire reference).

   Exit codes: 0 the design checked clean, 1 the checker found errors
   (or warnings, with --werror), 2 usage / parse / input failure. *)

open Cmdliner

let read_file path =
  if path = "-" then In_channel.input_all In_channel.stdin
  else In_channel.with_open_text path In_channel.input_all

let write_json path json =
  let content = Dic.Json.to_string json in
  if path = "-" then print_endline content
  else
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc content;
        Out_channel.output_char oc '\n')

let load_rules ~lambda rules_file =
  match rules_file with
  | None -> Tech.Rules.nmos ~lambda ()
  | Some path -> (
    match Tech.Rules.of_string (read_file path) with
    | Ok r -> r
    | Error msg ->
      Printf.eprintf "rule file: %s\n" msg;
      exit 2)

(* ------------------------------------------------------------------ *)
(* check                                                               *)

let run_dic ~show_netlist ~show_stats ~show_structure ~check_same_net ~expect ~markers
    ~jobs ~cache ~stats_json ~trace_out ~sarif_out ~top_cost ~progress ~werror ~lint
    ~lint_werror ~input decks src =
  match Cif.Parse.file src with
  | Error e ->
    Printf.eprintf "parse error: %s\n" (Cif.Parse.string_of_error e);
    2
  | Ok file -> (
    let expected_netlist =
      match expect with
      | None -> None
      | Some path -> (
        match Dic.Netcompare.parse (read_file path) with
        | Ok e -> Some e
        | Error msg ->
          Printf.eprintf "expected net list: %s\n" msg;
          exit 2)
    in
    let engine =
      let e =
        Dic.Engine.create ?cache_dir:cache ~decks
          (List.hd decks).Dic.Engine.dk_rules
      in
      let e = Dic.Engine.with_jobs e jobs in
      let e = Dic.Engine.with_same_net e check_same_net in
      let e = Dic.Engine.with_lint e (lint || lint_werror) in
      Dic.Engine.with_expected_netlist e expected_netlist
    in
    let trace = match trace_out with None -> None | Some _ -> Some (Dic.Trace.create ()) in
    let progress_fn =
      if progress then Some (fun stage -> Printf.eprintf "[dicheck] %s...\n%!" stage)
      else None
    in
    match Dic.Engine.check ?trace ?progress:progress_fn engine file with
    | Error e ->
      Printf.eprintf "error: %s\n" e;
      2
    | Ok multi ->
      let result, _reuse = Dic.Engine.primary multi in
      (* A single deck prints exactly the historical report; several
         decks print the merged view with deck-membership annotations
         and the compliant-intersection verdict. *)
      let view = match multi.Dic.Engine.results with [ _ ] -> `Single | _ -> `Merged in
      (* When any structured output claims stdout, the human report
         moves to stderr so the JSON stream stays parseable. *)
      let on_stdout = function Some "-" -> true | _ -> false in
      let out =
        if on_stdout stats_json || on_stdout trace_out || on_stdout sarif_out then
          Format.err_formatter
        else Format.std_formatter
      in
      Format.fprintf out "%s@?" (Dic.Engine.render ~view multi);
      (* Reuse goes to stderr: a warm run's stdout must stay
         byte-identical to the cold run's. *)
      if cache <> None then
        List.iter
          (fun (dr : Dic.Engine.deck_result) ->
            let reuse = dr.Dic.Engine.dr_reuse in
            Printf.eprintf
              "[dicheck] cache%s: %d/%d definition(s) reused (%d from disk), %d memo entr%s loaded\n"
              (match view with
              | `Single -> ""
              | `Merged -> "[" ^ dr.Dic.Engine.dr_deck.Dic.Engine.dk_label ^ "]")
              reuse.Dic.Engine.symbols_reused reuse.Dic.Engine.symbols_total
              reuse.Dic.Engine.defs_from_disk reuse.Dic.Engine.memo_loaded
              (if reuse.Dic.Engine.memo_loaded = 1 then "y" else "ies"))
          multi.Dic.Engine.results;
      if show_netlist then
        Format.fprintf out "@.--- net list ---@.%a@." Netlist.Net.pp
          result.Dic.Engine.netlist;
      if show_stats then
        Format.fprintf out "@.--- interaction coverage ---@.%a@." Dic.Interactions.pp_stats
          result.Dic.Engine.interaction_stats;
      if show_structure then
        Format.fprintf out "@.--- design structure ---@.%a@." Dic.Structure.pp
          (Dic.Structure.compute result.Dic.Engine.nets);
      if top_cost > 0 then begin
        Format.fprintf out "@.--- most expensive definitions ---@.";
        List.iter
          (fun (name, ns) ->
            Format.fprintf out "%-38s %12.3f ms@." name (Int64.to_float ns /. 1e6))
          (Dic.Metrics.top_costs result.Dic.Engine.metrics ~n:top_cost)
      end;
      (match markers with
      | None -> ()
      | Some path ->
        (* Multi-deck markers cover the merged view: every violation any
           deck flagged, once. *)
        let marker_report =
          match view with
          | `Single -> result.Dic.Engine.report
          | `Merged ->
            { Dic.Report.violations =
                List.rev_map
                  (fun (e : Dic.Multireport.entry) -> e.Dic.Multireport.violation)
                  multi.Dic.Engine.merged.Dic.Multireport.entries }
        in
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (Dic.Markers.to_cif marker_report)));
      (match stats_json with
      | None -> ()
      | Some path -> write_json path (Dic.Metrics.to_json result.Dic.Engine.metrics));
      (match (trace_out, trace) with
      | Some path, Some tr -> write_json path (Dic.Trace.chrome tr)
      | _ -> ());
      (match sarif_out with
      | None -> ()
      | Some path ->
        let uri = if input = "-" then "stdin" else input in
        write_json path (Dic.Engine.sarif ~view ~uri multi));
      Dic.Engine.exit_code ~werror ~lint_werror multi)

let run_flat ~metric ~poly_diff ~width_algorithm rules src =
  match Cif.Parse.file src with
  | Error e ->
    Printf.eprintf "parse error: %s\n" (Cif.Parse.string_of_error e);
    2
  | Ok file ->
    let mode = { Flatdrc.Classic.metric; poly_diff; width_algorithm } in
    let errors = Flatdrc.Classic.check mode rules file in
    List.iter (fun e -> Format.printf "%a@." Flatdrc.Classic.pp_error e) errors;
    Printf.printf "%d error(s)\n" (List.length errors);
    if errors = [] then 0 else 1

let check_main file flat metric polydiff figure_based lambda rules_files show_netlist
    show_stats show_structure check_same_net expect markers jobs cache stats_json
    trace_out sarif_out top_cost progress werror lint lint_werror =
  let decks =
    match rules_files with
    | [] -> [ Dic.Engine.deck (Tech.Rules.nmos ~lambda ()) ]
    | paths ->
      Dic.Engine.dedupe_labels
        (List.map
           (fun p ->
             Dic.Engine.deck ~label:(Filename.basename p)
               (load_rules ~lambda (Some p)))
           paths)
  in
  let src = read_file file in
  if flat then begin
    List.iter
      (fun (opt, name) ->
        if opt <> None then
          Printf.eprintf
            "dicheck: %s applies to the hierarchical checker; ignored with --flat\n" name)
      [ (stats_json, "--stats-json"); (trace_out, "--trace"); (sarif_out, "--sarif");
        (cache, "--cache") ];
    (match decks with
    | _ :: _ :: _ ->
      Printf.eprintf
        "dicheck: --flat checks one deck; using the first --rules only\n"
    | _ -> ());
    run_flat ~metric
      ~poly_diff:(if polydiff then `Flag_all else `Ignore)
      ~width_algorithm:(if figure_based then `Figure_based else `Shrink_expand_compare)
      (List.hd decks).Dic.Engine.dk_rules src
  end
  else
    run_dic ~show_netlist ~show_stats ~show_structure ~check_same_net ~expect ~markers
      ~jobs ~cache ~stats_json ~trace_out ~sarif_out ~top_cost ~progress ~werror ~lint
      ~lint_werror ~input:file decks src

(* ------------------------------------------------------------------ *)
(* lint                                                                *)

let lint_main file rules_files lambda explain_code sarif_out werror =
  match explain_code with
  | Some code -> (
    match Dic.Lint.explain code with
    | Some text ->
      Printf.printf "%s: %s\n" code text;
      0
    | None ->
      Printf.eprintf "dicheck: unknown lint code %S (codes: %s)\n" code
        (String.concat " " (List.map fst Dic.Lint.all_codes));
      2)
  | None ->
    (* Each --rules FILE is one deck; none means the built-in NMOS
       rules.  Deck lint (R001–R011) and the constraint-graph analysis
       (R012–R014) run per deck; with two or more decks the pairwise
       subsumption verdicts (R015) print as "deck relation" lines after
       the diagnostics. *)
    let decks =
      match rules_files with
      | [] ->
        let r = Tech.Rules.nmos ~lambda () in
        [ ("<builtin-rules>", Some r,
           Dic.Lint.sort (Dic.Lint.check_deck r @ Dic.Deckcheck.check_deck r)) ]
      | paths ->
        List.map
          (fun path ->
            let d, diags = Dic.Lint.check_deck_source (read_file path) in
            let diags =
              match d with
              | Some deck -> Dic.Lint.sort (diags @ Dic.Deckcheck.check_deck deck)
              | None -> diags
            in
            (path, d, diags))
          paths
    in
    let primary_rules =
      match decks with
      | (_, Some r, _) :: _ -> r
      | _ -> Tech.Rules.nmos ~lambda ()
    in
    let design_diags, design_src, file_waivers =
      match file with
      | None -> ([], None, [])
      | Some f -> (
        match Cif.Parse.file (read_file f) with
        | Error e ->
          Printf.eprintf "parse error: %s\n" (Cif.Parse.string_of_error e);
          exit 2
        | Ok ast ->
          (Dic.Lint.check_design primary_rules ast, Some f, ast.Cif.Ast.waivers))
    in
    (* Waivers: each deck's own [# lint: allow] comments plus the
       design's [4L] commands filter that deck's diagnostics; the
       design diagnostics are filtered once, under the primary deck. *)
    let deck_out =
      List.map
        (fun (path, d, diags) ->
          let dw = match d with Some r -> r.Tech.Rules.waivers | None -> [] in
          let kept, supp =
            Dic.Lint.partition_waived ~waivers:(dw @ file_waivers) diags
          in
          (path, d, kept, supp))
        decks
    in
    let design_kept, design_supp =
      Dic.Lint.partition_waived
        ~waivers:(primary_rules.Tech.Rules.waivers @ file_waivers)
        design_diags
    in
    List.iter
      (fun (path, _, kept, _) ->
        List.iter (fun d -> print_endline (Dic.Lint.render ~src:path d)) kept)
      deck_out;
    (match design_src with
    | Some f ->
      List.iter (fun d -> print_endline (Dic.Lint.render ~src:f d)) design_kept
    | None -> ());
    let parsed =
      List.filter_map (fun (p, d, _, _) -> Option.map (fun r -> (p, r)) d) deck_out
    in
    let relations =
      if List.length parsed >= 2 then Dic.Deckcheck.relation_lines parsed else []
    in
    List.iter (fun line -> Printf.printf "deck relation: %s\n" line) relations;
    let all = List.concat_map (fun (_, _, kept, _) -> kept) deck_out @ design_kept in
    let suppressed =
      List.concat_map (fun (_, _, _, s) -> s) deck_out @ design_supp
    in
    let errors = List.length (List.filter (fun d -> d.Dic.Lint.severity = Dic.Lint.Error) all) in
    Printf.printf "%d lint diagnostic(s): %d error(s), %d warning(s)\n" (List.length all)
      errors
      (List.length all - errors);
    (match Dic.Lint.suppressed_counts suppressed with
    | [] -> ()
    | counts ->
      Printf.printf "%d suppressed by waivers: %s\n" (List.length suppressed)
        (String.concat " "
           (List.map (fun (c, n) -> Printf.sprintf "%s x%d" c n) counts)));
    (match sarif_out with
    | None -> ()
    | Some path ->
      let uri =
        match design_src with
        | Some f -> f
        | None -> (match rules_files with p :: _ -> p | [] -> "<builtin-rules>")
      in
      (* Sarif renders [violations] reversed, so store them reversed to
         emit results in diagnostic order. *)
      let report_of diags =
        { Dic.Report.violations = List.rev (Dic.Lint.to_violations diags) }
      in
      match deck_out with
      | [ (_, _, kept, supp) ] ->
        write_json path
          (Dic.Sarif.of_report ~uri
             ~suppressed:(Dic.Lint.to_violations (supp @ design_supp))
             (report_of (kept @ design_kept)))
      | _ ->
        let runs =
          List.mapi
            (fun i (p, d, kept, _) ->
              let rules = match d with Some r -> r | None -> primary_rules in
              (p, rules, report_of (if i = 0 then kept @ design_kept else kept)))
            deck_out
        in
        let supp =
          List.mapi
            (fun i (p, _, _, s) ->
              (p, Dic.Lint.to_violations (if i = 0 then s @ design_supp else s)))
            deck_out
        in
        write_json path (Dic.Sarif.of_reports ~uri ~suppressed:supp ~relations runs));
    if errors > 0 then 1 else if werror && all <> [] then 1 else 0

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

let serve_main lambda rules_file cache socket workers max_queue trace_out event_log
    event_log_max_bytes slow_ms =
  let rules = load_rules ~lambda rules_file in
  (* The event log is written line-at-a-time from whichever domain hits
     a lifecycle transition; the hub serializes sink calls under its
     lock, and each line is flushed so `tail -f` (and the CI smoke)
     sees events as they happen.

     Long-lived daemons bound the log with [--event-log-max-bytes]:
     when a line would push the file past the limit, the current log
     rotates to [<path>.1] (replacing any previous rotation) and a
     fresh file takes over — one generation of history, never more
     than ~2x the limit on disk.  Rotation happens between lines, under
     the hub's lock, so lines are never split across files. *)
  let event_state =
    Option.map (fun path -> (path, ref (Out_channel.open_text path), ref 0)) event_log
  in
  let event_sink =
    Option.map
      (fun (path, oc, written) line ->
        (match event_log_max_bytes with
        | Some limit
          when !written > 0 && !written + String.length line + 1 > limit ->
          Out_channel.close !oc;
          (try Sys.rename path (path ^ ".1") with Sys_error _ -> ());
          oc := Out_channel.open_text path;
          written := 0
        | _ -> ());
        Out_channel.output_string !oc line;
        Out_channel.output_char !oc '\n';
        Out_channel.flush !oc;
        written := !written + String.length line + 1)
      event_state
  in
  let telemetry =
    Dic.Telemetry.create ?slow_ms ?event_sink
      ~collect_traces:(trace_out <> None) ()
  in
  let server =
    Dic.Serve.create ?cache_dir:cache ~workers ~max_queue ~telemetry rules
  in
  (* SIGTERM = graceful drain: the handler only flips a flag (OCaml 5
     handlers may run on any domain); the transport loops poll it and
     run the real shutdown — every queued request still gets a reply
     and the warm state is flushed to the cache. *)
  Sys.set_signal Sys.sigterm
    (Sys.Signal_handle (fun _ -> Dic.Serve.request_stop server));
  (match socket with
  | None -> Dic.Serve.serve_stdio server
  | Some path ->
    Printf.eprintf "[dicheck] serving on %s with %d worker(s)\n%!" path
      (Dic.Serve.worker_count server);
    Dic.Serve.serve_socket server ~path);
  (* Workers are joined; the collected per-request buffers merge in
     request order into one service-lifetime timeline. *)
  (match trace_out with
  | None -> ()
  | Some path ->
    write_json path (Dic.Trace.chrome (Dic.Telemetry.merged_trace telemetry)));
  Option.iter (fun (_, oc, _) -> Out_channel.close !oc) event_state;
  0

(* ------------------------------------------------------------------ *)
(* top                                                                 *)

(* One stats round trip on a fresh connection, so `top` keeps working
   across daemon restarts and never holds a reader hostage. *)
let fetch_stats ~req path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_UNIX path);
      let len = String.length req in
      let off = ref 0 in
      while !off < len do
        off := !off + Unix.write_substring sock req !off (len - !off)
      done;
      input_line (Unix.in_channel_of_descr sock))

let top_render path reply =
  let stats = Option.value ~default:Dic.Json.Null (Dic.Json.member "stats" reply) in
  let m name = Option.value ~default:Dic.Json.Null (Dic.Json.member name stats) in
  let numf j name = Option.value ~default:0. (Option.bind (Dic.Json.member name j) Dic.Json.num) in
  let numi j name = int_of_float (numf j name) in
  let requests = m "requests" and rps = m "rps" in
  let queue = m "queue" and cache = m "cache" in
  Printf.printf "dicheck top — %s   uptime %.1fs   workers %d\n" path
    (numf stats "uptime_s") (numi stats "workers");
  Printf.printf
    "requests   accepted %-6d served %-6d inflight %-4d queued %d/%d\n"
    (numi requests "accepted") (numi requests "served") (numi requests "inflight")
    (numi queue "depth") (numi queue "max");
  Printf.printf "           cancelled %-5d overloaded %-4d rejected %d\n"
    (numi requests "cancelled") (numi requests "overloaded")
    (numi requests "rejected");
  Printf.printf "rps        lifetime %-8.2f window %.2f\n" (numf rps "lifetime")
    (numf rps "window");
  List.iter
    (fun (label, name) ->
      let w = m name in
      Printf.printf
        "%s p50 %8.2f ms   p95 %8.2f ms   p99 %8.2f ms   mean %8.2f ms  (last %d)\n"
        label (numf w "p50") (numf w "p95") (numf w "p99") (numf w "mean")
        (numi w "len"))
    [ ("latency   ", "latency_ms"); ("wait      ", "wait_ms");
      ("service   ", "service_ms") ];
  Printf.printf "cache      hit %5.1f%%  (symbols %d/%d)\n"
    (100. *. numf cache "hit_ratio")
    (numi cache "symbols_reused") (numi cache "symbols_total");
  (match Option.bind (Dic.Json.member "workers_busy" stats) Dic.Json.arr with
  | Some busy ->
    print_string "busy      ";
    List.iteri
      (fun w j ->
        Printf.printf " w%d %3.0f%%" w (100. *. Option.value ~default:0. (Dic.Json.num j)))
      busy;
    print_newline ()
  | None -> ());
  flush stdout

let top_main path interval once raw metrics_format event_log =
  match event_log with
  | Some log_path -> (
    (* Offline post-mortem: no socket, no daemon — replay the event-log
       file through the lifecycle invariants and render the snapshot the
       daemon would have answered at its last entry. *)
    match Dic.Telemetry.replay (read_file log_path) with
    | Error msg ->
      Printf.eprintf "dicheck top: %s: %s\n" log_path msg;
      2
    | Ok snap ->
      (match metrics_format with
      | `Prom -> print_string (Dic.Telemetry.prometheus snap)
      | `Text ->
        if raw then print_endline (Dic.Json.to_string snap)
        else top_render log_path (Dic.Json.Obj [ ("stats", snap) ]));
      flush stdout;
      0)
  | None ->
  match path with
  | None ->
    Printf.eprintf "dicheck top: SOCKET is required unless --event-log FILE is given\n";
    2
  | Some path ->
  let prom = metrics_format = `Prom in
  let req =
    Dic.Json.to_string
      (Dic.Json.Obj
         ((("admin", Dic.Json.Str "stats")
          :: (if prom then [ ("format", Dic.Json.Str "prometheus") ] else []))
         @ [ ("id", Dic.Json.Str "top") ]))
    ^ "\n"
  in
  let tick () =
    match fetch_stats ~req path with
    | exception Unix.Unix_error (err, _, _) ->
      Printf.eprintf "dicheck top: %s: %s\n" path (Unix.error_message err);
      Error ()
    | exception End_of_file ->
      Printf.eprintf "dicheck top: %s: connection closed before reply\n" path;
      Error ()
    | line -> (
      match Dic.Json.parse line with
      | Error msg ->
        Printf.eprintf "dicheck top: bad stats reply: %s\n" msg;
        Error ()
      | Ok reply ->
        if prom then (
          match Option.bind (Dic.Json.member "prometheus" reply) Dic.Json.str with
          | Some text -> print_string text; flush stdout
          | None ->
            Printf.eprintf "dicheck top: daemon did not return prometheus text\n")
        else if raw then (
          match Dic.Json.member "stats" reply with
          | Some stats -> print_endline (Dic.Json.to_string stats)
          | None -> print_endline line)
        else begin
          if not once then print_string "\027[2J\027[H";
          top_render path reply
        end;
        Ok ())
  in
  if once then match tick () with Ok () -> 0 | Error () -> 2
  else begin
    (* Live view: a transient connection failure (daemon restarting)
       shows as a message, not an exit. *)
    let rec loop () =
      ignore (tick ());
      Unix.sleepf interval;
      loop ()
    in
    loop ()
  end

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let metric_conv =
  Arg.enum [ ("orthogonal", Geom.Measure.Orthogonal); ("euclidean", Geom.Measure.Euclidean) ]

let lambda_arg = Arg.(value & opt int 100 & info [ "lambda" ] ~doc:"Lambda in layout units.")

let rules_arg =
  Arg.(value & opt (some string) None & info [ "rules" ] ~docv:"FILE" ~doc:"Load the rule set from a rule file instead of the built-in NMOS rules.")

(* check accepts the flag repeatedly: each use adds a rule deck, and
   several decks share one elaboration of the design. *)
let rules_many_arg =
  Arg.(value & opt_all string []
       & info [ "rules" ] ~docv:"FILE"
           ~doc:"Load a rule deck from FILE instead of the built-in NMOS rules.  \
                 Repeatable: with several decks the design is elaborated once \
                 and checked against every deck, the report merges all decks' \
                 violations with deck-membership annotations, and the summary \
                 states which decks the design complies with.  Exit status is \
                 the worst deck's.")

let cache_arg =
  Arg.(value & opt (some string) None
       & info [ "cache" ] ~docv:"DIR"
           ~doc:"Persist per-definition results and the interaction memo under \
                 DIR (created if missing), keyed by content: a recheck reuses \
                 everything whose definition, rules, and config did not change.  \
                 Cache state never changes verdicts, only cost; reuse counts go \
                 to stderr and to $(b,--stats-json).")

let exits =
  [ Cmd.Exit.info 0 ~doc:"the design checked clean (with $(b,--werror): no warnings either).";
    Cmd.Exit.info 1 ~doc:"the checker found errors (with $(b,--werror): or warnings).";
    Cmd.Exit.info 2 ~doc:"usage, parse, or input failure." ]

let check_term =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"CIF file (- for stdin)")
  in
  let flat = Arg.(value & flag & info [ "flat" ] ~doc:"Run the classical flat baseline instead.") in
  let metric =
    Arg.(value & opt metric_conv Geom.Measure.Orthogonal & info [ "metric" ] ~doc:"Spacing metric for the flat baseline.")
  in
  let polydiff =
    Arg.(value & flag & info [ "flag-crossings" ] ~doc:"Flat baseline: flag every poly-diffusion crossing.")
  in
  let figure_based =
    Arg.(value & flag & info [ "figure-based" ] ~doc:"Flat baseline: figure-based width checks instead of shrink-expand-compare.")
  in
  let netlist = Arg.(value & flag & info [ "netlist" ] ~doc:"Print the extracted net list.") in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print interaction-matrix coverage.") in
  let structure =
    Arg.(value & flag & info [ "structure" ] ~doc:"Print design-structure statistics.")
  in
  let same_net =
    Arg.(value & flag & info [ "check-same-net" ] ~doc:"Check spacing even between same-net elements (net-blind ablation).")
  in
  let expect =
    Arg.(value & opt (some string) None & info [ "expect" ] ~docv:"FILE" ~doc:"Verify the extracted net list against this expected net list.")
  in
  let markers =
    Arg.(value & opt (some string) None & info [ "markers" ] ~docv:"FILE" ~doc:"Write violation markers as CIF (layer XE) to FILE.")
  in
  let jobs =
    Arg.(value & opt int 0
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Domains for the element, device and interaction sweeps, which \
                   all run on one scheduler: N fans their worklists over up to N \
                   domains (1 = the calling domain only), 0 (default) asks the \
                   runtime for the recommended count.  The report is identical \
                   for every N.")
  in
  let stats_json =
    Arg.(value & opt (some string) None
         & info [ "stats-json" ] ~docv:"FILE"
             ~doc:"Write run metrics (per-stage wall-clock, work counters \
                   including cache reuse, per-pair cost histogram, \
                   per-definition costs, errors by class) as canonical JSON to \
                   FILE (- for stdout).")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace-event JSON timeline of the run to FILE \
                   (- for stdout): one span per pipeline stage, per symbol \
                   definition checked, and per parallel interaction shard.  \
                   Load it in Perfetto (ui.perfetto.dev) or chrome://tracing.")
  in
  let sarif_out =
    Arg.(value & opt (some string) None
         & info [ "sarif" ] ~docv:"FILE"
             ~doc:"Write the report as SARIF 2.1.0 to FILE (- for stdout), with \
                   the CIF source line/column and the full instance path on \
                   each violation.")
  in
  let top_cost =
    Arg.(value & opt int 0
         & info [ "top-cost" ] ~docv:"N"
             ~doc:"Print the N most expensive symbol definitions (wall-clock \
                   across all checking stages).")
  in
  let progress =
    Arg.(value & flag
         & info [ "progress" ]
             ~doc:"Print each pipeline stage to stderr as it starts.")
  in
  let werror =
    Arg.(value & flag
         & info [ "werror" ]
             ~doc:"Exit 1 when the report contains warnings, not only errors.")
  in
  let lint =
    Arg.(value & flag
         & info [ "lint" ]
             ~doc:"Also run the static lint passes (rule deck + design hierarchy) \
                   and prepend their $(b,lint.*) diagnostics to the report.")
  in
  let lint_werror =
    Arg.(value & flag
         & info [ "lint-werror" ]
             ~doc:"Like $(b,--lint), but exit 1 when any lint diagnostic fires, \
                   warnings included.")
  in
  Term.(
    const check_main $ file $ flat $ metric $ polydiff $ figure_based $ lambda_arg
    $ rules_many_arg $ netlist $ stats $ structure $ same_net $ expect $ markers $ jobs
    $ cache_arg $ stats_json $ trace_out $ sarif_out $ top_cost $ progress $ werror
    $ lint $ lint_werror)

let check_cmd =
  Cmd.v
    (Cmd.info "check" ~exits
       ~doc:"Check one CIF file and print the report (the default subcommand).")
    check_term

let lint_cmd =
  let file =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"CIF file to lint (- for stdin); with no FILE \
                                      only the rule deck is linted.")
  in
  let explain =
    Arg.(value & opt (some string) None
         & info [ "explain" ] ~docv:"CODE"
             ~doc:"Print the one-line explanation of a stable lint code (R0xx for \
                   rule-deck lints, D0xx for design lints) and exit.")
  in
  let sarif_out =
    Arg.(value & opt (some string) None
         & info [ "sarif" ] ~docv:"FILE"
             ~doc:"Write the lint diagnostics as SARIF 2.1.0 to FILE (- for stdout), \
                   one SARIF rule per lint code.")
  in
  let werror =
    Arg.(value & flag
         & info [ "werror" ]
             ~doc:"Exit 1 when any diagnostic fires, warnings included.")
  in
  Cmd.v
    (Cmd.info "lint" ~exits
       ~doc:"Static immunity analysis, before any geometry runs: lint the rule deck \
             ($(b,--rules), or the built-in NMOS rules) and, when FILE is given, the \
             CIF symbol hierarchy, including the constraint-graph analysis \
             (unsatisfiable combinations, shadowed entries, non-monotone \
             overrides).  Repeat $(b,--rules) to compare decks pairwise: \
             subsumption verdicts print as deck-relation lines.  Diagnostics \
             carry stable codes (R0xx / D0xx, see $(b,--explain)), are sorted \
             by (file, location, code), honor $(b,# lint: allow CODE) deck \
             comments and CIF $(b,4L CODE;) waivers, and exit 1 on any \
             error-severity finding.")
    Term.(const lint_main $ file $ rules_many_arg $ lambda_arg $ explain $ sarif_out $ werror)

let serve_cmd =
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Listen on a Unix domain socket at PATH (unlinked and rebound \
                   at startup) instead of serving the process's stdin/stdout.  \
                   Clients connect and speak the same JSON-lines protocol; any \
                   number may be connected at once.")
  in
  let workers =
    Arg.(value & opt int 0
         & info [ "workers" ] ~docv:"N"
             ~doc:"Size of the worker-domain pool answering requests (0, the \
                   default, asks the runtime for the recommended count).  Each \
                   worker keeps its own warm engines over the shared \
                   $(b,--cache) directory; reports are byte-identical at every \
                   worker count.")
  in
  let max_queue =
    Arg.(value & opt int 64
         & info [ "max-queue" ] ~docv:"N"
             ~doc:"Bound on the pending-request queue.  Submissions beyond it \
                   are refused immediately with an \"overloaded\" reply \
                   instead of queueing without bound.")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Collect a per-request span tree for every request served \
                   (the enqueue-to-dequeue wait plus the engine's stage spans, \
                   one lane per worker) and write the merged Chrome trace-event \
                   timeline to FILE (- for stdout) at shutdown.  Requests \
                   merge in request order, so the file is deterministic for a \
                   given request history.")
  in
  let event_log =
    Arg.(value & opt (some string) None
         & info [ "event-log" ] ~docv:"FILE"
             ~doc:"Append one JSON object per service event to FILE as it \
                   happens: request lifecycle transitions (accepted, started, \
                   finished, cancelled, overloaded, rejected), slow-request \
                   entries (see $(b,--slow-ms)), and daemon lifecycle (start, \
                   shutdown_begin, shutdown).  Field names are stable; the \
                   schema is in docs/PROTOCOL.md.")
  in
  let event_log_max_bytes =
    Arg.(value & opt (some int) None
         & info [ "event-log-max-bytes" ] ~docv:"BYTES"
             ~doc:"With $(b,--event-log): rotate the log once appending a line \
                   would push it past BYTES.  The current file moves to \
                   $(i,FILE).1 (replacing any previous rotation) and logging \
                   continues in a fresh $(i,FILE) — a long-lived daemon keeps \
                   at most one generation of history, never more than about \
                   twice BYTES on disk.  Lines are never split across the \
                   rotation.  Without this option the log grows without \
                   bound.")
  in
  let slow_ms =
    Arg.(value & opt (some float) None
         & info [ "slow-ms" ] ~docv:"MS"
             ~doc:"With $(b,--event-log): also write a \"slow\" entry for \
                   every request whose total latency (wait + service) reaches \
                   MS milliseconds.")
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:"Answer JSON-lines check requests concurrently from a pool of \
             worker domains over warm engines.  One request object per input \
             line, one reply line per request; re-submitting an id supersedes \
             the previous request with that id, and a shutdown request (or \
             SIGTERM) drains the queue and flushes the cache before exiting.  \
             Live service stats answer the {\"admin\":\"stats\"} request (see \
             $(b,dicheck top)); $(b,--event-log) streams the request \
             lifecycle as JSON lines.  The full wire reference is \
             docs/PROTOCOL.md.")
    Term.(const serve_main $ lambda_arg $ rules_arg $ cache_arg $ socket
          $ workers $ max_queue $ trace_out $ event_log $ event_log_max_bytes
          $ slow_ms)

let top_cmd =
  let socket =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"SOCKET"
             ~doc:"Unix domain socket of a running $(b,dicheck serve --socket) \
                   daemon.  Required unless $(b,--event-log) replays a log \
                   file instead.")
  in
  let event_log =
    Arg.(value & opt (some string) None
         & info [ "event-log" ] ~docv:"FILE"
             ~doc:"Offline post-mortem: instead of querying a live daemon, \
                   replay a $(b,dicheck serve --event-log) file through the \
                   request-lifecycle invariants (every accepted request ends \
                   in exactly one terminal entry, only after acceptance; \
                   shutdown figures match the replayed counts) and render the \
                   final stats snapshot.  Combines with $(b,--raw) and \
                   $(b,--metrics-format prom); exits 2 naming the offending \
                   line when the log violates an invariant.")
  in
  let interval =
    Arg.(value & opt float 2.
         & info [ "interval" ] ~docv:"SECONDS"
             ~doc:"Refresh period of the live view.")
  in
  let once =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:"Print one snapshot and exit instead of refreshing (no \
                   screen clearing; exit 2 if the daemon is unreachable).")
  in
  let raw =
    Arg.(value & flag
         & info [ "raw" ]
             ~doc:"Print the canonical stats JSON instead of the rendered \
                   view (one object per refresh; combine with $(b,--once) \
                   for scripting).")
  in
  let metrics_format =
    Arg.(value
         & opt (enum [ ("text", `Text); ("prom", `Prom) ]) `Text
         & info [ "metrics-format" ] ~docv:"FORMAT"
             ~doc:"Output format of the stats snapshot: $(b,text) (default) \
                   renders the live view, $(b,prom) prints the Prometheus \
                   text exposition of the same snapshot (combine with \
                   $(b,--once) to feed a scrape pipeline or node-exporter \
                   textfile collector).")
  in
  Cmd.v
    (Cmd.info "top" ~exits
       ~doc:"Live service view of a running serve daemon: request counters, \
             queue depth, rolling latency percentiles, cache hit ratio, and \
             per-worker busy fractions, refreshed every $(b,--interval) \
             seconds over the daemon's {\"admin\":\"stats\"} request.  \
             $(b,--metrics-format prom) prints the same snapshot as \
             Prometheus text exposition instead, and $(b,--event-log FILE) \
             replays a finished daemon's event log offline.")
    Term.(const top_main $ socket $ interval $ once $ raw $ metrics_format
          $ event_log)

let info =
  Cmd.info "dicheck" ~version:Dic.Version.version ~exits
    ~doc:"Design integrity and immunity checking (McGrath & Whitney, DAC 1980)"

let group =
  Cmd.group ~default:check_term info [ check_cmd; lint_cmd; serve_cmd; top_cmd ]

(* The historical spelling `dicheck FILE` must keep working, but
   cmdliner's command groups reject a first positional that is not a
   subcommand name.  Route through the group only when the invocation
   clearly addresses it (a known subcommand, help, version, or nothing
   at all); everything else is a legacy one-shot check. *)
let legacy = Cmd.v info check_term

let () =
  let use_group =
    Array.length Sys.argv <= 1
    || match Sys.argv.(1) with
       | "check" | "lint" | "serve" | "top" | "--help" | "-h" | "--version" -> true
       | _ -> false
  in
  (* Fold cmdliner's own failure codes (cli errors, internal errors)
     into the documented usage-failure code. *)
  let code = Cmd.eval' (if use_group then group else legacy) in
  exit (if code = Cmd.Exit.cli_error || code = Cmd.Exit.internal_error then 2 else code)
