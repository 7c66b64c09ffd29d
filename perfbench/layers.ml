(* The engine's pipeline called one public layer function at a time, in
   the engine's order, so that every call gets its own span.  Cache
   addressing and disk lookups, which the engine spreads over the start
   of a check, share one span.  This is the traced run's view of a
   check; the timed end-to-end checks go through [Engine.check_string]
   and never pass through here. *)

open Dic

let words () =
  let g = Gc.quick_stat () in
  g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words

let seconds ns = Int64.to_float ns *. 1e-9

type span = {
  name : string;
  secs : float;
  mwords : float;  (** words allocated by the call, all domains, in millions *)
}

(* One layered check's recorder.  [overhead_ns] is the time spent in
   the instrumentation itself: GC sampling, clock reads and span
   recording outside each measured interval. *)
type tracer = {
  tr : Trace.t;
  parent : string;
  mutable spans : span list;  (** newest first *)
  mutable overhead_ns : int64;
}

let tracer tr ~parent = { tr; parent; spans = []; overhead_ns = 0L }

let span tc name f =
  let o0 = Metrics.now_ns () in
  let w0 = words () in
  let t0 = Metrics.now_ns () in
  let v = f () in
  let t1 = Metrics.now_ns () in
  let w1 = words () in
  let dur = Int64.sub t1 t0 in
  Trace.record tc.tr ~cat:"layer" ~args:[ ("parent", tc.parent) ] name ~ts_ns:t0 ~dur_ns:dur;
  tc.spans <- { name; secs = seconds dur; mwords = (w1 -. w0) /. 1e6 } :: tc.spans;
  tc.overhead_ns <-
    Int64.add tc.overhead_ns
      (Int64.add (Int64.sub t0 o0) (Int64.sub (Metrics.now_ns ()) t1));
  v

(* The extra [jobs = 1] interaction run is a comparison the engine never
   makes, so [check_secs] leaves it out of a check's total. *)
let serial_run = "interactions.run_serial"

type result = {
  report : Report.t;
  rendered : string;
  spans : span list;  (** in call order *)
  overhead_s : float;
  instantiated : int;
  stats : Interactions.stats;
  serial_matches : bool;  (** the [jobs = 1] run judged the same violations *)
  task_skips : int;
}

let span_secs r name =
  List.fold_left (fun acc s -> if s.name = name then acc +. s.secs else acc) 0. r.spans

let span_mwords r name =
  List.fold_left (fun acc s -> if s.name = name then acc +. s.mwords else acc) 0. r.spans

let check_secs r =
  List.fold_left (fun acc s -> if s.name = serial_run then acc else acc +. s.secs) 0. r.spans

(* The engine's memo import: disk entries are keyed by subtree
   fingerprints and come back under every symbol id sharing them. *)
let remap_memo disk subtree =
  let by_fp = Hashtbl.create 64 in
  Hashtbl.iter
    (fun sid fp ->
      Hashtbl.replace by_fp fp (sid :: Option.value ~default:[] (Hashtbl.find_opt by_fp fp)))
    subtree;
  let seen = Hashtbl.create 64 in
  List.concat_map
    (fun ((fpa, fpb, tr), entry) ->
      match (Hashtbl.find_opt by_fp fpa, Hashtbl.find_opt by_fp fpb) with
      | Some sas, Some sbs ->
        List.concat_map
          (fun sa ->
            List.filter_map
              (fun sb ->
                let key = (sa, sb, tr) in
                if Hashtbl.mem seen key then None
                else begin
                  Hashtbl.replace seen key ();
                  Some (key, entry)
                end)
              sbs)
          sas
      | _ -> [])
    disk

let memo_of entries =
  let m = Interactions.create_memo () in
  Interactions.import_memo m entries;
  m

let check tc ~rules ~jobs ?cache_dir text =
  let span name f = span tc name f in
  match span "cif.parse" (fun () -> Cif.Parse.file text) with
  | Error e -> Error (Cif.Parse.string_of_error e)
  | Ok file -> (
    match span "model.elaborate" (fun () -> Model.elaborate rules file) with
    | Error e -> Error e
    | Ok (model, parse_issues) ->
      let config =
        { Engine.default_config with
          Engine.interactions = { Interactions.default_config with Interactions.jobs } }
      in
      (* Cache addressing is paid on every check; only a warm recheck
         also reads definitions and the memo back from disk. *)
      let hits, memo, memo_entries =
        span "cache.lookup" (fun () ->
            let fps =
              List.map (fun (s : Model.symbol) -> (s, Engine.fingerprint s)) model.Model.symbols
            in
            let subtree = Engine.subtree_fingerprints model in
            match cache_dir with
            | None -> (List.map (fun (s, _) -> (s, None)) fps, Interactions.create_memo (), [])
            | Some dir ->
              let c = Cache.open_dir dir in
              let env = Engine.env_key rules config in
              let hits = List.map (fun (s, fp) -> (s, Cache.find_def c ~env ~fp)) fps in
              let disk = Cache.load_memo c ~env:(Engine.memo_env_key rules config) in
              let entries = remap_memo disk subtree in
              (hits, memo_of entries, entries))
      in
      let consult cert_of = Deckcheck.consult ~cert_of rules in
      let certified =
        if not (Deckcheck.enabled ()) then None
        else
          Some
            (span "deckcheck.certify" (fun () ->
                 let by_sid = Hashtbl.create 64 in
                 List.iter
                   (fun (s : Model.symbol) ->
                     Hashtbl.replace by_sid s.Model.sid
                       (Deckcheck.certify ~lookup:(Hashtbl.find_opt by_sid) s))
                   model.Model.symbols;
                 let cert_of = Hashtbl.find_opt by_sid in
                 (cert_of, consult cert_of)))
      in
      let cert_of = Option.map fst certified in
      let immune (s : Model.symbol) =
        match Option.bind cert_of (fun lk -> lk s.Model.sid) with
        | Some c -> Deckcheck.element_immune rules c
        | None -> false
      in
      let per_def name fresh replay =
        span name (fun () ->
            List.concat_map
              (fun (s, hit) -> match hit with Some e -> replay e | None -> fresh s)
              hits)
      in
      let element_issues =
        per_def "element_checks.check"
          (fun s -> if immune s then [] else Element_checks.check_symbol rules s)
          (fun e -> e.Cache.de_elements)
      in
      let device_issues =
        per_def "devices.check" (Devices.check_symbol rules) (fun e -> e.Cache.de_devices)
      in
      let nets, connection_issues = span "netgen.build" (fun () -> Netgen.build model) in
      let netlist = span "netgen.netlist" (fun () -> Netgen.netlist nets) in
      let plan =
        span "interactions.plan" (fun () ->
            Interactions.plan ~dmax:(Interactions.max_dist rules) nets)
      in
      let run ~jobs ~memo ~certs =
        let metrics = Metrics.create () in
        fun () ->
          let out =
            Interactions.run
              ~config:{ config.Engine.interactions with Interactions.jobs }
              ~rules ~memo ~metrics ?certs plan
          in
          (out, Metrics.counter metrics "analysis.certified_task_skips")
      in
      let (interaction_issues, stats), task_skips =
        span "interactions.run" (run ~jobs ~memo ~certs:(Option.map snd certified))
      in
      (* A fresh memo and guard memo, so the serial run starts where
         the parallel one did. *)
      let (serial_issues, _), _ =
        span serial_run
          (run ~jobs:1 ~memo:(memo_of memo_entries) ~certs:(Option.map consult cert_of))
      in
      let electrical_issues =
        span "erc.check" (fun () -> Engine.erc_violations netlist)
      in
      let report, rendered =
        span "report.render" (fun () ->
            let local, crossing = Netgen.locality nets in
            let locality =
              Report.info ~stage:Report.Netlist_gen ~rule:"netlist.locality" ~context:"TOP"
                (Printf.sprintf "%d net(s) local to one definition, %d crossing boundaries"
                   local crossing)
            in
            let report =
              { Report.violations =
                  parse_issues @ element_issues @ device_issues @ connection_issues
                  @ interaction_issues @ electrical_issues @ [ locality ] }
            in
            (report, Format.asprintf "%a" Report.pp report))
      in
      Ok
        { report;
          rendered;
          spans = List.rev tc.spans;
          overhead_s = seconds tc.overhead_ns;
          instantiated = Model.instantiated_elements model;
          stats;
          serial_matches = serial_issues = interaction_issues;
          task_skips })

let stages =
  Report.
    [ Parse_stage; Elements; Devices; Connections; Netlist_gen; Interactions; Integrity;
      Electrical ]

(* Stages whose violation counts differ between two reports. *)
let stage_mismatches a b =
  List.filter
    (fun st -> List.length (Report.by_stage a st) <> List.length (Report.by_stage b st))
    stages
