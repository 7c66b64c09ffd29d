type config = {
  interactions : Interactions.config;
  run_erc : bool;
  expected_netlist : Netcompare.expected option;
  relational : Process_model.Exposure.t option;
  run_lint : bool;
}

let default_config =
  { interactions = Interactions.default_config; run_erc = true; expected_netlist = None;
    relational = None; run_lint = false }

type deck = {
  dk_label : string;
  dk_rules : Tech.Rules.t;
}

let deck ?label rules =
  { dk_label = (match label with Some l -> l | None -> rules.Tech.Rules.name);
    dk_rules = rules }

(* Labels key the merged report's membership annotations and the SARIF
   run ids, so collisions (two decks from files of the same basename)
   get a positional suffix rather than aliasing each other. *)
let dedupe_labels decks =
  let seen = Hashtbl.create 8 in
  List.map
    (fun d ->
      let n = 1 + Option.value ~default:0 (Hashtbl.find_opt seen d.dk_label) in
      Hashtbl.replace seen d.dk_label n;
      if n = 1 then d else { d with dk_label = Printf.sprintf "%s#%d" d.dk_label n })
    decks

type result = {
  report : Report.t;
  netlist : Netlist.Net.t;
  interaction_stats : Interactions.stats;
  metrics : Metrics.t;
  model : Model.t;
  nets : Netgen.t;
}

type reuse = {
  symbols_total : int;
  symbols_reused : int;
  defs_from_disk : int;
  memo_loaded : int;
}

type deck_result = {
  dr_deck : deck;
  dr_result : result;
  dr_reuse : reuse;
  dr_suppressed : Lint.diagnostic list;
}

type multi = {
  results : deck_result list;
  merged : Multireport.t;
}

let primary m =
  let dr = List.hd m.results in
  (dr.dr_result, dr.dr_reuse)

let erc_violations netlist =
  List.map
    (fun v ->
      let rule =
        match v with
        | Netlist.Erc.Floating_net _ -> "erc.floating-net"
        | Netlist.Erc.Supply_short _ -> "erc.supply-short"
        | Netlist.Erc.Bus_on_supply _ -> "erc.bus-on-supply"
        | Netlist.Erc.Depletion_on_ground _ -> "erc.depletion-on-ground"
      in
      let severity =
        (* A floating net is suspicious, not provably fatal. *)
        match v with Netlist.Erc.Floating_net _ -> `W | _ -> `E
      in
      let msg = Format.asprintf "%a" Netlist.Erc.pp_violation v in
      match severity with
      | `E -> Report.error ~stage:Report.Electrical ~rule ~context:"netlist" msg
      | `W -> Report.warning ~stage:Report.Electrical ~rule ~context:"netlist" msg)
    (Netlist.Erc.check netlist)

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)

(* Structural fingerprint of one definition.  Everything the
   per-definition checks can observe is folded in: name (violations
   carry it as context), device kind, element geometry/layers/nets,
   and calls with their transforms. *)
let fingerprint (s : Model.symbol) =
  let elements =
    List.map
      (fun (e : Model.element) ->
        ( Tech.Layer.index e.Model.layer,
          List.map
            (fun r -> (Geom.Rect.x0 r, Geom.Rect.y0 r, Geom.Rect.x1 r, Geom.Rect.y1 r))
            e.Model.rects,
          e.Model.net_label ))
      s.Model.elements
  in
  let calls =
    List.map
      (fun (c : Model.call) ->
        let o = Geom.Transform.apply_pt c.Model.transform Geom.Pt.zero in
        let ex = Geom.Transform.apply_pt c.Model.transform (Geom.Pt.make 1 0) in
        (c.Model.callee, o.Geom.Pt.x, o.Geom.Pt.y, ex.Geom.Pt.x, ex.Geom.Pt.y,
         Geom.Transform.det c.Model.transform))
      s.Model.calls
  in
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (s.Model.sname, Option.map Tech.Device.to_tag s.Model.device, elements, calls)
          []))

let subtree_fingerprints (model : Model.t) =
  (* model.symbols is topologically sorted, callees first. *)
  let fps = Hashtbl.create 16 in
  List.iter
    (fun (s : Model.symbol) ->
      let own = fingerprint s in
      let subs =
        List.map (fun (c : Model.call) -> Hashtbl.find fps c.Model.callee) s.Model.calls
      in
      Hashtbl.replace fps s.Model.sid
        (Digest.to_hex (Digest.string (String.concat ";" (own :: subs)))))
    model.Model.symbols;
  fps

(* Parallelism never affects results, so the environment digest — the
   cache address — normalises [jobs] away.  The rule set enters through
   its canonical textual form, not its in-memory record: source
   positions (and any other provenance that never reaches a verdict)
   must not split the cache, and two decks that print the same are the
   same deck. *)
let env_key rules (config : config) =
  let c = { config with interactions = { config.interactions with Interactions.jobs = 1 } } in
  Digest.to_hex (Digest.string (Marshal.to_string (Tech.Rules.to_string rules, c) []))

(* The interaction memo's own address.  A memoised candidate list
   depends only on the geometry, the candidate cutoff [max_dist], and
   the distance metric — never on the individual spacing values — so
   decks agreeing on those share one memo, on disk and warm. *)
let memo_env_key rules (config : config) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (Interactions.max_dist rules, config.interactions.Interactions.metric)
          []))

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)

(* Warm interaction-memo state for one memo environment (one [dmax] ×
   metric class of decks). *)
type memo_slot = {
  ms_env : string;
  ms_memo : Interactions.memo;
  (* sid -> subtree fingerprint from the previous check, for memo
     invalidation across edits *)
  mutable ms_fps : (int * string) list;
  (* the on-disk memo (content-addressed keys), loaded at most once *)
  mutable ms_disk : Cache.memo_file option;
}

type t = {
  mutable e_decks : deck list;
  mutable e_config : config;
  e_cache : Cache.t option;
  (* the primary deck's environment digest *)
  mutable e_env : string;
  (* env -> fingerprint -> per-definition results.  One table per deck
     environment, so warming deck A never touches deck B's entries. *)
  e_defs : (string, (string, Cache.def_entry) Hashtbl.t) Hashtbl.t;
  (* env -> fingerprint -> that definition's model-pass lints.  D-codes
     are per-definition facts, so warm sessions replay them like check
     results instead of re-running the skeleton-erosion pass. *)
  e_lints : (string, (string, Lint.diagnostic list) Hashtbl.t) Hashtbl.t;
  (* memo-env -> slot, ditto for the interaction memo *)
  e_memos : (string, memo_slot) Hashtbl.t;
  (* sid -> subtree fingerprint from the most recent check, kept so
     [flush] can re-run the memo save outside any check *)
  mutable e_last_subtree : (int, string) Hashtbl.t option;
  (* subtree fingerprint -> static immunity certificate.  Certificates
     are pure geometry — no deck, no config enters them — so one table
     serves every environment and survives config changes. *)
  e_certs : (string, Deckcheck.cert) Hashtbl.t;
}

let create ?(config = default_config) ?cache_dir ?decks rules =
  let decks =
    match decks with
    | Some [] -> invalid_arg "Engine.create: empty deck list"
    | Some ds -> ds
    | None -> [ deck rules ]
  in
  { e_decks = decks;
    e_config = config;
    e_cache = Option.map Cache.open_dir cache_dir;
    e_env = env_key (List.hd decks).dk_rules config;
    e_defs = Hashtbl.create 4;
    e_lints = Hashtbl.create 4;
    e_memos = Hashtbl.create 4;
    e_last_subtree = None;
    e_certs = Hashtbl.create 64 }

let rules t = (List.hd t.e_decks).dk_rules
let decks t = t.e_decks
let config t = t.e_config
let same_env t rules config = String.equal (env_key rules config) t.e_env

let with_decks t decks =
  (match decks with [] -> invalid_arg "Engine.with_decks: empty deck list" | _ -> ());
  t.e_decks <- decks;
  t.e_env <- env_key (List.hd decks).dk_rules t.e_config;
  t

let with_config t config =
  let env = env_key (rules t) config in
  if not (String.equal env t.e_env) then begin
    (* New environment: none of the warm state can be trusted (the
       per-env tables could survive, but a config change invalidates
       every deck's address at once, so a clean slate is simpler). *)
    Hashtbl.reset t.e_defs;
    Hashtbl.reset t.e_lints;
    Hashtbl.reset t.e_memos;
    t.e_last_subtree <- None;
    t.e_env <- env
  end;
  t.e_config <- config;
  t

let with_jobs t jobs =
  with_config t
    { t.e_config with interactions = { t.e_config.interactions with Interactions.jobs = jobs } }

let with_same_net t check_same_net =
  with_config t
    { t.e_config with
      interactions = { t.e_config.interactions with Interactions.check_same_net } }

let with_spacing_model t spacing_model =
  with_config t
    { t.e_config with
      interactions = { t.e_config.interactions with Interactions.spacing_model } }

let with_erc t run_erc = with_config t { t.e_config with run_erc }
let with_lint t run_lint = with_config t { t.e_config with run_lint }
let with_expected_netlist t expected_netlist = with_config t { t.e_config with expected_netlist }

let subtbl tbl env =
  match Hashtbl.find_opt tbl env with
  | Some h -> h
  | None ->
    let h = Hashtbl.create 64 in
    Hashtbl.add tbl env h;
    h

let defs_for t env = subtbl t.e_defs env
let lints_for t env = subtbl t.e_lints env

let slot_for t rules =
  let env = memo_env_key rules t.e_config in
  match Hashtbl.find_opt t.e_memos env with
  | Some s -> s
  | None ->
    let s =
      { ms_env = env; ms_memo = Interactions.create_memo (); ms_fps = []; ms_disk = None }
    in
    Hashtbl.add t.e_memos env s;
    s

(* ------------------------------------------------------------------ *)
(* The lint layer                                                      *)

(* One deck's static lint outcome: the diagnostics its report keeps, as
   [lint.*] violations, and the ones its waivers suppressed. *)
type deck_lint = {
  dl_kept : Report.violation list;
  dl_suppressed : Lint.diagnostic list;
}

(* Every deck's outcome when lint is off. *)
let no_lint = { dl_kept = []; dl_suppressed = [] }

(* Static lints run before any geometry: one deck pass per deck, one
   design pass (syntax tree + model) shared by all.

   The model pass is per-definition, so warm sessions replay it from the
   fingerprint-keyed table instead of re-eroding every skeleton.  The
   syntax-tree pass stays live: duplicate ids, cycles and unreachability
   are facts about the raw tree that elaboration erases — no
   per-definition fingerprint can address them — and the walk is cheap.

   Waivers filter at reporting time only: the cached per-definition
   lists stay unfiltered, and a waiver change never splits the cache
   (waivers are excluded from the deck's canonical text, like
   [key_positions]).  The [lint.*] counters describe the primary
   deck. *)
let lint_decks t m file model fps =
  let lints = lints_for t t.e_env in
  let replayed = ref 0 in
  let model_diags =
    Lint.sort
      (List.concat_map
         (fun ((s : Model.symbol), fp) ->
           match Hashtbl.find_opt lints fp with
           | Some ds ->
             incr replayed;
             ds
           | None ->
             let ds = Lint.check_model_symbol model s in
             Hashtbl.replace lints fp ds;
             ds)
         fps)
  in
  Metrics.incr ~by:!replayed m "lint.defs_replayed";
  Metrics.incr ~by:(List.length fps - !replayed) m "lint.defs_computed";
  let design = Lint.check_ast file @ model_diags in
  List.mapi
    (fun i d ->
      let diags =
        Lint.sort (Lint.check_deck d.dk_rules @ Deckcheck.check_deck d.dk_rules @ design)
      in
      let waivers = d.dk_rules.Tech.Rules.waivers @ file.Cif.Ast.waivers in
      let kept, suppressed = Lint.partition_waived ~waivers diags in
      if i = 0 then begin
        Lint.record_metrics m kept;
        Metrics.incr ~by:(List.length suppressed) m "lint.suppressed"
      end;
      { dl_kept = Lint.to_violations kept; dl_suppressed = suppressed })
    t.e_decks

(* ------------------------------------------------------------------ *)
(* Certificates                                                        *)

(* Static immunity certificates: one bundle of geometric facts per
   definition, cached across checks under the subtree fingerprint
   exactly like lint diags.  Deck-free and config-free, so every deck
   of the run consults the same table.  [None] — certificates off —
   under DIC_NO_CERTS (the identity smokes) and under the exposure
   spacing model, whose verdicts drawn-gap bounds cannot certify.
   Otherwise the certificate lookup by symbol id.  Charged to
   [analysis.certify] rather than a stage of its own so the stage
   sequence keeps its shape. *)
let certify t m (model : Model.t) subtree =
  let geometric =
    match t.e_config.interactions.Interactions.spacing_model with
    | Interactions.Geometric -> true
    | Interactions.Exposure _ -> false
  in
  if not (Deckcheck.enabled () && geometric) then None
  else begin
    let t0 = Metrics.now_ns () in
    let by_sid = Hashtbl.create 64 in
    let computed = ref 0 and replayed = ref 0 in
    List.iter
      (fun (s : Model.symbol) ->
        let fp = Hashtbl.find subtree s.Model.sid in
        let cert =
          match Hashtbl.find_opt t.e_certs fp with
          | Some c ->
            incr replayed;
            c
          | None ->
            let c = Deckcheck.certify ~lookup:(fun sid -> Hashtbl.find_opt by_sid sid) s in
            incr computed;
            Hashtbl.replace t.e_certs fp c;
            c
        in
        Hashtbl.replace by_sid s.Model.sid cert)
      model.Model.symbols;
    Metrics.incr ~by:!computed m "analysis.certs_computed";
    Metrics.incr ~by:!replayed m "analysis.certs_replayed";
    Metrics.add_cost_ns m "analysis.certify" (Int64.sub (Metrics.now_ns ()) t0);
    Some (fun sid -> Hashtbl.find_opt by_sid sid)
  end

(* ------------------------------------------------------------------ *)
(* Interaction memo slots                                              *)

(* Invalidate memoised instance pairs whose definition subtree changed
   since the previous check, then pull in any surviving entries from
   the on-disk memo (remapping its content-addressed keys to this
   model's symbol ids).  Returns the number of entries imported. *)
let refresh_slot t trace subtree slot =
  let unchanged sid =
    match (List.assoc_opt sid slot.ms_fps, Hashtbl.find_opt subtree sid) with
    | Some old_fp, Some new_fp -> String.equal old_fp new_fp
    | _ -> false
  in
  Interactions.prune_memo slot.ms_memo ~keep:unchanged;
  slot.ms_fps <- Hashtbl.fold (fun sid fp acc -> (sid, fp) :: acc) subtree [];
  match t.e_cache with
  | None -> 0
  | Some cache ->
    Trace.with_span trace ~cat:"cache" "memo-load" (fun () ->
        let disk =
          match slot.ms_disk with
          | Some d -> d
          | None ->
            let d = Cache.load_memo cache ~env:slot.ms_env in
            slot.ms_disk <- Some d;
            d
        in
        if disk = [] then 0
        else begin
          let by_fp = Hashtbl.create 64 in
          Hashtbl.iter
            (fun sid fp ->
              Hashtbl.replace by_fp fp
                (sid :: Option.value ~default:[] (Hashtbl.find_opt by_fp fp)))
            subtree;
          let present = Hashtbl.create 64 in
          List.iter
            (fun (key, _) -> Hashtbl.replace present key ())
            (Interactions.export_memo slot.ms_memo);
          let imported = ref [] in
          List.iter
            (fun ((fpa, fpb, tr), entry) ->
              match (Hashtbl.find_opt by_fp fpa, Hashtbl.find_opt by_fp fpb) with
              | Some sas, Some sbs ->
                List.iter
                  (fun sa ->
                    List.iter
                      (fun sb ->
                        let key = (sa, sb, tr) in
                        if not (Hashtbl.mem present key) then begin
                          Hashtbl.replace present key ();
                          imported := (key, entry) :: !imported
                        end)
                      sbs)
                  sas
              | _ -> ())
            disk;
          Interactions.import_memo slot.ms_memo !imported;
          List.length !imported
        end)

(* Persist the memo under content-addressed keys (subtree fingerprints
   instead of process-local symbol ids), deduplicated and sorted so the
   file is deterministic for a given entry set.  The file is a merge
   with what was already on disk: entries for definitions absent from
   the current model (another design checked by the same server, or a
   pre-edit version of this one) are still content-valid, so dropping
   them would throw warmth away. *)
let save_slot t trace subtree slot =
  match t.e_cache with
  | None -> ()
  | Some cache ->
    Trace.with_span trace ~cat:"cache" "memo-save" (fun () ->
        let dedup = Hashtbl.create 64 in
        (match slot.ms_disk with
        | Some old -> List.iter (fun (k, e) -> Hashtbl.replace dedup k e) old
        | None -> ());
        List.iter
          (fun ((sa, sb, tr), entry) ->
            match (Hashtbl.find_opt subtree sa, Hashtbl.find_opt subtree sb) with
            | Some fa, Some fb -> Hashtbl.replace dedup (fa, fb, tr) entry
            | _ -> ())
          (Interactions.export_memo slot.ms_memo);
        let entries = Hashtbl.fold (fun k e acc -> (k, e) :: acc) dedup [] in
        let entries = List.sort (fun (ka, _) (kb, _) -> compare ka kb) entries in
        slot.ms_disk <- Some entries;
        Cache.store_memo cache ~env:slot.ms_env entries)

(* One deck's interaction memo for this check.  Decks agreeing on
   [memo_env_key] share one slot; the first of them refreshes and saves
   it and is credited with the entries imported from disk, so totals
   across decks match what actually moved. *)
type deck_memo = {
  mm_slot : memo_slot;
  mm_first : bool;  (* the first deck of the set using [mm_slot] *)
  mm_loaded : int;  (* entries imported from disk; 0 unless [mm_first] *)
}

let refresh_memos t m trace subtree =
  let seen = ref [] in
  let memos =
    List.map
      (fun d ->
        let slot = slot_for t d.dk_rules in
        let first = not (List.memq slot !seen) in
        if first then seen := slot :: !seen;
        { mm_slot = slot; mm_first = first;
          mm_loaded = (if first then refresh_slot t trace subtree slot else 0) })
      t.e_decks
  in
  Metrics.incr ~by:(List.fold_left (fun acc mm -> acc + mm.mm_loaded) 0 memos) m
    "cache.memo_loaded";
  memos

let save_memos t trace subtree memos =
  List.iter (fun mm -> if mm.mm_first then save_slot t trace subtree mm.mm_slot) memos

(* ------------------------------------------------------------------ *)
(* The per-definition layer                                            *)

(* One per symbol occurrence in the model, per deck environment.  A
   cached definition arrives with its three lists replayed from the
   entry; a fresh one has them filled stage by stage by
   [sweep_definitions] and stored as one entry by [store_definitions]. *)
type slot = {
  sl_sym : Model.symbol;
  sl_fp : string;
  sl_fresh : bool;
  mutable sl_el : Report.violation list;
  mutable sl_dv : Report.violation list;
  mutable sl_rel : Report.violation list;
}

(* One deck's resolution of every definition against the caches. *)
type lookup = {
  lk_deck : deck;
  lk_env : string;
  lk_slots : slot list;  (** in definition order *)
  lk_reused : int;  (** slots answered by the session or disk cache *)
  lk_from_disk : int;  (** of those, slots read from disk *)
}

(* Resolve every definition against each deck's session (then disk)
   cache before the sweeps start, so each stage just replays or
   computes, and count the outcome under [cache.*]. *)
let lookup_definitions t m trace fps =
  let lookups =
    Trace.with_span trace ~cat:"cache" "defs-lookup" (fun () ->
        List.map
          (fun d ->
            let env = env_key d.dk_rules t.e_config in
            let defs = defs_for t env in
            let from_disk = ref 0 and reused = ref 0 in
            let slot ((s : Model.symbol), fp) =
              let hit =
                match Hashtbl.find_opt defs fp with
                | Some e -> Some e
                | None -> (
                  match Option.bind t.e_cache (fun cache -> Cache.find_def cache ~env ~fp) with
                  | Some e ->
                    incr from_disk;
                    Hashtbl.replace defs fp e;
                    Some e
                  | None -> None)
              in
              match hit with
              | Some e ->
                incr reused;
                { sl_sym = s; sl_fp = fp; sl_fresh = false; sl_el = e.Cache.de_elements;
                  sl_dv = e.Cache.de_devices; sl_rel = e.Cache.de_relational }
              | None ->
                { sl_sym = s; sl_fp = fp; sl_fresh = true; sl_el = []; sl_dv = []; sl_rel = [] }
            in
            let slots = List.map slot fps in
            { lk_deck = d; lk_env = env; lk_slots = slots; lk_reused = !reused;
              lk_from_disk = !from_disk })
          t.e_decks)
  in
  let total = List.length fps * List.length lookups in
  let reused = List.fold_left (fun acc lk -> acc + lk.lk_reused) 0 lookups in
  Metrics.incr ~by:total m "cache.symbols_total";
  Metrics.incr ~by:reused m "cache.symbols_reused";
  Metrics.incr ~by:(List.fold_left (fun acc lk -> acc + lk.lk_from_disk) 0 lookups) m
    "cache.defs_from_disk";
  Metrics.incr ~by:(total - reused) m "cache.defs_computed";
  if total > 0 then
    Metrics.set_gauge m "cache.hit_ratio" (float_of_int reused /. float_of_int total);
  lookups

(* The per-definition stages of Fig 10.  [Elements] carries the
   certificate lookup by symbol id when certificates are on. *)
type def_stage =
  | Elements of (int -> Deckcheck.cert option) option
  | Devices
  | Relational of Process_model.Exposure.t

let def_stage_name = function
  | Elements _ -> "elements"
  | Devices -> "devices"
  | Relational _ -> "devices-relational"

(* One per-definition stage over every deck's fresh slots.  Each fresh
   slot is one independent (deck rules × definition) task, so the
   worklist — every deck's fresh slots in deck-major definition order —
   runs on the same cost-balanced scheduler as the interaction sweep.
   Workers store each result into its slot under a ["symbol"] span and
   a [symbol.<name>] cost charge, into per-domain buffers merged in tid
   order; the caller reads the slots back in definition order, so the
   report bytes are the same at every [jobs] value.

   A certificate can prove the element stage silent for a definition
   under a deck; the slot then keeps its empty list without computing.
   Sound for the cache too: the stored [] equals what the check would
   have produced. *)
let sweep_definitions m trace ~jobs lookups stage =
  let name = def_stage_name stage in
  let fresh =
    Array.of_list
      (List.concat_map
         (fun lk ->
           List.filter_map
             (fun sl -> if sl.sl_fresh then Some (lk.lk_deck.dk_rules, sl) else None)
             lk.lk_slots)
         lookups)
  in
  let immune rules sl =
    match stage with
    | Elements (Some cert_of) -> (
      match cert_of sl.sl_sym.Model.sid with
      | Some c -> Deckcheck.element_immune rules c
      | None -> false)
    | _ -> false
  in
  let compute rules sl =
    match stage with
    | Elements _ -> sl.sl_el <- Element_checks.check_symbol rules sl.sl_sym
    | Devices -> sl.sl_dv <- Devices.check_symbol rules sl.sl_sym
    | Relational exposure -> sl.sl_rel <- Devices.check_relational exposure rules sl.sl_sym
  in
  let skips =
    Parallel.run ~metrics:m ?trace ~jobs ~stage:name
      ~weight:(fun i -> 1 + List.length (snd fresh.(i)).sl_sym.Model.elements)
      ~n:(Array.length fresh) ~worker:ignore
      ~chunk:(fun () dm dt ~lo ~hi ->
        let skips = ref 0 in
        for i = lo to hi - 1 do
          let rules, sl = fresh.(i) in
          let sname = sl.sl_sym.Model.sname in
          Trace.with_span dt ~cat:"symbol" ~args:[ ("stage", name) ] sname (fun () ->
              let t0 = Metrics.now_ns () in
              if immune rules sl then incr skips else compute rules sl;
              Option.iter
                (fun dm ->
                  Metrics.add_cost_ns dm ("symbol." ^ sname) (Int64.sub (Metrics.now_ns ()) t0))
                dm)
        done;
        !skips)
      ~merge:ignore ()
  in
  match stage with
  | Elements (Some _) ->
    let skips = List.fold_left ( + ) 0 skips in
    Metrics.incr ~by:skips m "analysis.certified_element_skips";
    Metrics.incr ~by:skips m "analysis.certified_skips"
  | _ -> ()

(* Freshly computed definitions become cache entries (session + disk),
   under their deck's environment.  When [relational] is off the stored
   list is empty, which is sound: the environment digest separates the
   two configs. *)
let store_definitions t trace lookups =
  Trace.with_span trace ~cat:"cache" "defs-save" (fun () ->
      List.iter
        (fun lk ->
          let defs = defs_for t lk.lk_env in
          let stored = Hashtbl.create 16 in
          List.iter
            (fun sl ->
              if sl.sl_fresh && not (Hashtbl.mem stored sl.sl_fp) then begin
                Hashtbl.replace stored sl.sl_fp ();
                let entry =
                  { Cache.de_elements = sl.sl_el; de_devices = sl.sl_dv;
                    de_relational = sl.sl_rel }
                in
                Hashtbl.replace defs sl.sl_fp entry;
                Option.iter
                  (fun cache -> Cache.store_def cache ~env:lk.lk_env ~fp:sl.sl_fp entry)
                  t.e_cache
              end)
            lk.lk_slots)
        lookups)

(* ------------------------------------------------------------------ *)
(* The interaction layer                                               *)

(* Each deck's interaction sweep, in deck order.  The sweep diverges per
   deck, but its worklist — the expensive plan — depends only on the
   candidate cutoff, so decks agreeing on [max_dist] share one plan (as
   they share their memo slot). *)
let judge_interactions t m trace certs memos nets =
  let plans = Hashtbl.create 4 in
  let plan_for rules =
    let dmax = Interactions.max_dist rules in
    match Hashtbl.find_opt plans dmax with
    | Some p -> p
    | None ->
      let p = Interactions.plan ~dmax nets in
      Hashtbl.add plans dmax p;
      p
  in
  List.map2
    (fun d mm ->
      let certs = Option.map (fun cert_of -> Deckcheck.consult ~cert_of d.dk_rules) certs in
      Interactions.run ~config:t.e_config.interactions ~rules:d.dk_rules
        ~memo:mm.mm_slot.ms_memo ~metrics:m ?trace ?certs (plan_for d.dk_rules))
    t.e_decks memos

(* ------------------------------------------------------------------ *)
(* Report assembly                                                     *)

(* One report per deck, in stage order, plus the merged view.  Lint, the
   per-definition lists and the interaction verdicts are the deck's own;
   the parse, connection, electrical and net-list findings and the
   locality note are shared by every deck. *)
let assemble t m model nets netlist ~parse ~lints ~lookups ~memos ~connection
    ~interactions ~electrical ~consistency =
  let local, crossing = Netgen.locality nets in
  let locality =
    Report.info ~stage:Report.Netlist_gen ~rule:"netlist.locality" ~context:"TOP"
      (Printf.sprintf "%d net(s) local to one definition, %d crossing boundaries" local
         crossing)
  in
  let deck_result (lint, lk) (mm, (interaction_issues, interaction_stats)) =
    let from_slots field = List.concat_map field lk.lk_slots in
    let report =
      { Report.violations =
          lint.dl_kept @ parse
          @ from_slots (fun sl -> sl.sl_el)
          @ from_slots (fun sl -> sl.sl_dv)
          @ from_slots (fun sl -> sl.sl_rel)
          @ connection @ interaction_issues @ electrical @ consistency @ [ locality ] }
    in
    { dr_deck = lk.lk_deck;
      dr_result = { report; netlist; interaction_stats; metrics = m; model; nets };
      dr_reuse =
        { symbols_total = List.length lk.lk_slots;
          symbols_reused = lk.lk_reused;
          defs_from_disk = lk.lk_from_disk;
          memo_loaded = mm.mm_loaded };
      dr_suppressed = lint.dl_suppressed }
  in
  let results =
    List.map2 deck_result (List.combine lints lookups) (List.combine memos interactions)
  in
  (* Pairwise subsumption verdicts (R015) live only in the merged view:
     injecting them into per-deck reports would break the "each deck's
     report is byte-identical to that deck checked alone" invariant. *)
  let relations =
    match t.e_decks with
    | _ :: _ :: _ when t.e_config.run_lint ->
      Deckcheck.relation_lines (List.map (fun d -> (d.dk_label, d.dk_rules)) t.e_decks)
    | _ -> []
  in
  let merged =
    Multireport.make ~relations
      (List.map (fun dr -> (dr.dr_deck.dk_label, dr.dr_result.report)) results)
  in
  Metrics.count_report m (List.hd results).dr_result.report;
  { results; merged }

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)

(* The Fig 10 pipeline, one named layer per step.  Each stage is
   announced to [progress], timed into the metrics, and recorded as a
   ["stage"]-category trace span — one wrapper, so the three views
   always agree on stage names.  With several decks the per-deck work
   loops {e inside} each stage, so the stage sequence — and, for the
   primary deck, the report bytes — are identical to a single-deck
   run. *)
let check ?metrics ?trace ?progress t file =
  let m = match metrics with Some m -> m | None -> Metrics.create () in
  let timed name f =
    Option.iter (fun f -> f name) progress;
    Trace.with_span trace ~cat:"stage" name (fun () -> Metrics.time_stage m name f)
  in
  match timed "elaborate" (fun () -> Model.elaborate (rules t) file) with
  | Error e -> Error e
  | Ok (model, parse) ->
    Metrics.incr ~by:(Model.symbol_count model) m "model.symbols";
    Metrics.incr ~by:(Model.definition_elements model) m "model.definition_elements";
    Metrics.incr ~by:(Model.instantiated_elements model) m "model.instantiated_elements";
    (* Definition fingerprints are deck-independent and computed once;
       they address the session caches of both the lint pass and the
       per-definition sweeps. *)
    let fps = List.map (fun (s : Model.symbol) -> (s, fingerprint s)) model.Model.symbols in
    (* Off by default, so the default report bytes are untouched. *)
    let lints =
      if t.e_config.run_lint then timed "lint" (fun () -> lint_decks t m file model fps)
      else List.map (fun _ -> no_lint) t.e_decks
    in
    let subtree = subtree_fingerprints model in
    let certs = certify t m model subtree in
    let memos = refresh_memos t m trace subtree in
    let lookups = lookup_definitions t m trace fps in
    let jobs = Interactions.effective_jobs t.e_config.interactions.Interactions.jobs in
    List.iter
      (fun stage ->
        timed (def_stage_name stage) (fun () -> sweep_definitions m trace ~jobs lookups stage))
      (Elements certs :: Devices
      :: Option.to_list (Option.map (fun e -> Relational e) t.e_config.relational));
    store_definitions t trace lookups;
    (* Composite stages always run fresh and are deck-independent: they
       are the hierarchical, cheap part, and they stitch the cached
       pieces together. *)
    let nets, connection = timed "connections+netlist" (fun () -> Netgen.build model) in
    let netlist = timed "netlist-export" (fun () -> Netgen.netlist nets) in
    let interactions =
      timed "interactions" (fun () -> judge_interactions t m trace certs memos nets)
    in
    let electrical =
      if t.e_config.run_erc then timed "electrical" (fun () -> erc_violations netlist)
      else []
    in
    let consistency =
      match t.e_config.expected_netlist with
      | None -> []
      | Some expected -> timed "netlist-compare" (fun () -> Netcompare.check expected netlist)
    in
    let multi =
      assemble t m model nets netlist ~parse ~lints ~lookups ~memos ~connection
        ~interactions ~electrical ~consistency
    in
    save_memos t trace subtree memos;
    t.e_last_subtree <- Some subtree;
    Ok multi

(* Persist whatever warm state the session holds; a no-op before the
   first check or without a cache directory.  [check] already saves the
   memo slots on every run, so this only matters for orderly teardown
   paths (daemon shutdown) that want an explicit flush point. *)
let flush t =
  match t.e_last_subtree with
  | None -> ()
  | Some subtree -> Hashtbl.iter (fun _ slot -> save_slot t None subtree slot) t.e_memos

let check_string ?metrics ?trace ?progress t src =
  match Cif.Parse.file src with
  | Error e -> Error (Cif.Parse.string_of_error e)
  | Ok file -> check ?metrics ?trace ?progress t file

let pp_summary ppf r =
  let by sev = Report.count ~severity:sev r.report in
  Format.fprintf ppf "%d error(s), %d warning(s), %d net(s)" (by Report.Error)
    (by Report.Warning)
    (List.length r.netlist.Netlist.Net.nets)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

type view = [ `Single | `Merged ]

let render ~view multi =
  match view with
  | `Single ->
    let r, _ = primary multi in
    Format.asprintf "%a@." Report.pp r.report ^ Format.asprintf "%a@." pp_summary r
  | `Merged ->
    Format.asprintf "%a@." Multireport.pp multi.merged
    ^ Format.asprintf "%a@." Multireport.pp_summary multi.merged

(* Waived lint findings ride along as suppressed results; a deck set
   also carries its pairwise relations. *)
let sarif ~view ~uri multi =
  let suppressed dr = Lint.to_violations dr.dr_suppressed in
  match (view, multi.results) with
  | `Single, dr :: _ -> Sarif.of_report ~uri ~suppressed:(suppressed dr) dr.dr_result.report
  | _, drs ->
    Sarif.of_reports ~uri
      ~suppressed:(List.map (fun dr -> (dr.dr_deck.dk_label, suppressed dr)) drs)
      ~relations:multi.merged.Multireport.relations
      (List.map (fun dr -> (dr.dr_deck.dk_label, dr.dr_deck.dk_rules, dr.dr_result.report)) drs)

let deck_exits ~werror ~lint_werror multi =
  List.map (fun dr -> Report.exit_code ~werror ~lint_werror dr.dr_result.report) multi.results

let exit_code ~werror ~lint_werror multi =
  List.fold_left max 0 (deck_exits ~werror ~lint_werror multi)
