(* Tests for the observability subsystem (mediactl.obs): the trace
   ring, per-run metrics, and the Fig. 5 conformance monitor — including
   the round-trip against the model checker's verdicts on the same path
   configurations, and detection of injected protocol violations. *)

open Mediactl_types
open Mediactl_core
open Mediactl_runtime
open Mediactl_apps
module Trace = Mediactl_obs.Trace
module Metrics = Mediactl_obs.Metrics
module Monitor = Mediactl_obs.Monitor
module Stats = Mediactl_sim.Stats
module Impair = Mediactl_net.Impair
module Policy = Mediactl_net.Policy
module Reliable = Mediactl_net.Reliable

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

(* A traced timed run of a model-checker path configuration. *)
let traced_path ?(left = Semantics.Open_end) ?(right = Semantics.Open_end) ?(flowlinks = 0)
    ?(loss = 0.0) ~seed () =
  snd
    (Trace.recording_packed (fun () ->
         let sim = Timed.create ~seed ~n:34.0 ~c:20.0 (Pathlab.topology ~flowlinks ()) in
         Timed.observe sim;
         if loss > 0.0 then begin
           let impair = Impair.create ~seed ~default:(Policy.lossy loss) () in
           ignore (Reliable.attach impair sim)
         end;
         Timed.apply sim (Pathlab.engage_left left);
         Timed.apply sim (Pathlab.engage_right right ~flowlinks);
         ignore (Timed.run ~until:60_000.0 sim)))

let events_of p =
  let acc = ref [] in
  Trace.Packed.iter (fun e -> acc := e :: !acc) p;
  List.rev !acc

(* Re-record decoded events as a fresh capture — how the tests below
   mutate a trace.  Timestamps restart at 0 and seqs at 0. *)
let repack events =
  snd (Trace.recording_packed (fun () -> List.iter (fun e -> Trace.emit e.Trace.kind) events))

(* --- the recording ---------------------------------------------------- *)

let test_disabled_by_default () =
  check tbool "disabled by default" false (Trace.enabled ());
  (* Emitting outside a recording is a no-op, not an error. *)
  Trace.emit (Trace.Meta_send { chan = "c"; box = "b" });
  let (), p = Trace.recording_packed (fun () -> ()) in
  check tint "fresh recording is empty" 0 (Trace.Packed.length p);
  check tbool "disabled after recording" false (Trace.enabled ())

let test_recording_captures_and_numbers () =
  let (), p =
    Trace.recording_packed (fun () ->
        Trace.emit (Trace.Meta_send { chan = "c"; box = "a" });
        Trace.emit (Trace.Meta_recv { chan = "c"; box = "b" }))
  in
  check tint "two events" 2 (Trace.Packed.length p);
  check tbool "sequence numbers restart and increase" true
    (List.map (fun e -> e.Trace.seq) (events_of p) = [ 0; 1 ])

let test_jsonl_roundtrip_shape () =
  let p = traced_path ~seed:3 () in
  check tbool "nonempty" true (Trace.Packed.length p > 0);
  let path = Filename.temp_file "obs" ".jsonl" in
  Trace.write_jsonl path p;
  let ic = open_in path in
  let lines = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lines;
       check tbool "line is a JSON object" true
         (String.length line > 2 && line.[0] = '{' && line.[String.length line - 1] = '}')
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  check tint "one line per event" (Trace.Packed.length p) !lines

(* --- the packed ring -------------------------------------------------- *)

let jsonl p = String.concat "\n" (List.map Trace.event_to_json (events_of p))

(* The consumers of one capture agree with each other: the metrics'
   monitor-derived counters match the replay, the live ring read at the
   end of the recording is the capture it drains to, a tail window
   renumbered from its start judges like the whole, and feeding the
   replay core channel by channel reaches the whole trace's verdict. *)
let test_packed_consumers_agree () =
  let seed = 13 and loss = 0.08 in
  let (n, whole, tail, k), packed =
    Trace.recording_packed (fun () ->
        let sim = Timed.create ~seed ~n:34.0 ~c:20.0 (Pathlab.topology ()) in
        Timed.observe sim;
        let impair = Impair.create ~seed ~default:(Policy.lossy loss) () in
        ignore (Reliable.attach impair sim);
        Timed.apply sim (Pathlab.engage_left Semantics.Open_end);
        Timed.apply sim (Pathlab.engage_right Semantics.Open_end ~flowlinks:0);
        ignore (Timed.run ~until:60_000.0 sim);
        let n, whole = Trace.live 0 in
        let k = n / 2 in
        (n, whole, snd (Trace.live k), k))
  in
  check tbool "nonempty" true (n > 0);
  check tint "live length is the capture's" (Trace.Packed.length packed) n;
  check tbool "live read at the end is the drained capture" true
    (String.equal (jsonl whole) (jsonl packed));
  check tint "tail window length" (n - k) (Trace.Packed.length tail);
  check tbool "tail window entries keep their place" true
    (List.for_all2
       (fun (a : Trace.event) (b : Trace.event) ->
         a.Trace.kind = b.Trace.kind && a.Trace.at = b.Trace.at)
       (events_of tail)
       (List.filteri (fun i _ -> i >= k) (events_of packed)));
  let m = Metrics.of_packed packed and report = Monitor.replay_packed packed in
  check tint "metrics races are the monitor's"
    (List.fold_left (fun acc r -> acc + r.Monitor.races) 0 report.Monitor.tunnels)
    m.Metrics.open_races;
  check tint "metrics violations are the monitor's" (List.length report.Monitor.violations)
    m.Metrics.violations;
  let legs = [ Pathlab.ends ~flowlinks:0 ] in
  let whole_verdict = Monitor.verdict Monitor.Always_eventually_flowing ~legs packed in
  check tbool "verdict satisfied" true (whole_verdict = Monitor.Satisfied);
  let chans =
    List.sort_uniq String.compare
      (List.filter_map
         (fun e ->
           match e.Trace.kind with
           | Trace.Sig_send s | Trace.Sig_recv s -> Some s.Trace.chan
           | _ -> None)
         (events_of packed))
  in
  let m = Monitor.machines () in
  List.iter (fun chan -> Monitor.feed ~chan m packed) chans;
  check tbool "channel-by-channel feed reaches the same verdict" true
    (Monitor.judge Monitor.Always_eventually_flowing ~legs m = whole_verdict)

(* Entries must survive buffer doubling (the ring starts at 1024
   entries), and a later recording on the same domain reuses the ring
   without leaking the previous capture's entries. *)
let test_ring_growth_and_reuse () =
  let n = 5000 in
  let (), big =
    Trace.recording_packed (fun () ->
        for i = 0 to n - 1 do
          Trace.net ~chan:(if i mod 2 = 0 then "even" else "odd") Trace.Ack_sent
        done)
  in
  check tint "all entries captured across growth" n (Trace.Packed.length big);
  let ok = ref true in
  Trace.Packed.iter
    (fun e ->
      let i = e.Trace.seq in
      match e.Trace.kind with
      | Trace.Net { chan; decision = Trace.Ack_sent } ->
        if chan <> (if i mod 2 = 0 then "even" else "odd") then ok := false
      | _ -> ok := false)
    big;
  check tbool "entries survive buffer growth in order" true !ok;
  let (), small =
    Trace.recording_packed (fun () -> Trace.net ~chan:"fresh" Trace.Dropped)
  in
  check tint "reused ring starts empty" 1 (Trace.Packed.length small);
  match (Trace.Packed.event small 0).Trace.kind with
  | Trace.Net { chan = "fresh"; decision = Trace.Dropped } -> ()
  | _ -> Alcotest.fail "stale entries leaked from the previous recording"

(* Two domains recording concurrently must produce disjoint captures,
   and a capture (including its interned signals) must decode correctly
   after being shipped to the joining domain. *)
let test_ring_two_domain_isolation () =
  let record chan count =
    snd
      (Trace.recording_packed (fun () ->
           let d =
             Descriptor.make ~owner:chan ~version:1 (Address.v "10.0.0.1" 7) [ Codec.G711 ]
           in
           Trace.sig_send ~chan ~tun:0 ~box:"A" ~peer:"B" ~initiator:true
             (Signal.Open (Medium.Audio, d));
           for _ = 1 to count do
             Trace.net ~chan Trace.Ack_sent
           done))
  in
  let d1 = Domain.spawn (fun () -> record "dom1" 300) in
  let d2 = Domain.spawn (fun () -> record "dom2" 500) in
  let p1 = Domain.join d1 and p2 = Domain.join d2 in
  let only chan p =
    let ok = ref true in
    Trace.Packed.iter
      (fun e ->
        match e.Trace.kind with
        | Trace.Net { chan = c; decision = Trace.Ack_sent } -> if c <> chan then ok := false
        | Trace.Sig_send { chan = c; signal = Signal.Open (Medium.Audio, d); _ } ->
          if c <> chan || d.Descriptor.owner <> chan then ok := false
        | _ -> ok := false)
      p;
    !ok
  in
  check tint "domain 1 count" 301 (Trace.Packed.length p1);
  check tint "domain 2 count" 501 (Trace.Packed.length p2);
  check tbool "no cross-domain leakage, signals decode after join" true
    (only "dom1" p1 && only "dom2" p2)

(* --- metrics ---------------------------------------------------------- *)

let test_metrics_clean_run () =
  let m = Metrics.of_packed (traced_path ~seed:5 ()) in
  let sends = List.fold_left (fun acc (_, n) -> acc + n) 0 m.Metrics.sends_by_signal in
  check tint "every send delivered" sends m.Metrics.recvs;
  check tint "no drops without impairment" 0 m.Metrics.drops;
  check tint "no retransmissions without impairment" 0 m.Metrics.retransmissions;
  check tbool "time to bothFlowing measured" true (Stats.count m.Metrics.time_to_flowing = 1);
  check tbool "a signal round-trip measured" true (Stats.count m.Metrics.round_trip >= 1);
  check tint "clean run is conformant" 0 m.Metrics.violations

let prop_histogram_partitions =
  QCheck2.Test.make ~name:"histogram bins partition the samples" ~count:100
    QCheck2.Gen.(pair (int_range 1 12) (list_size (int_range 1 60) (float_bound_exclusive 1000.0)))
    (fun (bins, samples) ->
      let s = Stats.create () in
      List.iter (Stats.add s) samples;
      let h = Stats.histogram ~bins s in
      List.length h = bins
      && List.fold_left (fun acc (_, _, n) -> acc + n) 0 h = List.length samples)

(* --- the monitor: conformance ---------------------------------------- *)

let prop_zero_loss_satisfies_monitor =
  QCheck2.Test.make
    ~name:"zero-impairment path run: Fig. 5 conformant and []<> bothFlowing satisfied"
    ~count:40
    QCheck2.Gen.(pair (int_range 0 9999) (int_range 0 1))
    (fun (seed, flowlinks) ->
      let trace = traced_path ~seed ~flowlinks () in
      let report = Monitor.replay_packed trace in
      let verdict =
        Monitor.verdict Monitor.Always_eventually_flowing ~legs:[ Pathlab.ends ~flowlinks ]
          trace
      in
      Monitor.conformant report && verdict = Monitor.Satisfied)

let prop_lossy_still_conformant =
  QCheck2.Test.make
    ~name:"lossy path run with the reliability layer: still protocol-conformant" ~count:40
    QCheck2.Gen.(pair (int_range 0 9999) (int_range 1 25))
    (fun (seed, loss_pct) ->
      let trace = traced_path ~seed ~loss:(float_of_int loss_pct /. 100.0) () in
      Monitor.conformant (Monitor.replay_packed trace))

(* --- the monitor: flagging violations -------------------------------- *)

(* A run that closes cleanly: both ends flow, then both ends are told to
   close (crossing closes, both acknowledged). *)
let record_close_run () =
  snd
    (Trace.recording_packed (fun () ->
         let net, _ = Netsys.run (Pathlab.build ()) in
         let net, _ = Netsys.bind_close net Pathlab.left_slot in
         let net, _ = Netsys.bind_close net (Pathlab.right_slot ~flowlinks:0) in
         ignore (Netsys.run net)))

(* Drop R's closeack (its send, and its receipt at L), as a faulty
   network without the reliability layer would. *)
let drop_closeack p =
  repack
    (List.filter
       (fun e ->
         match e.Trace.kind with
         | Trace.Sig_send { box = "R"; signal = Signal.Closeack; _ } -> false
         | Trace.Sig_recv { box = "L"; signal = Signal.Closeack; _ } -> false
         | _ -> true)
       (events_of p))

let test_clean_close_is_conformant () =
  let trace = record_close_run () in
  let report = Monitor.replay_packed trace in
  check tbool "close run conformant" true (Monitor.conformant report);
  check tbool "close run decides <>[] bothClosed" true
    (Monitor.verdict Monitor.Eventually_always_closed ~legs:[ Pathlab.ends ~flowlinks:0 ]
       trace
    = Monitor.Satisfied)

let test_dropped_closeack_is_flagged () =
  let trace = drop_closeack (record_close_run ()) in
  let report = Monitor.replay_packed trace in
  check tbool "mutated trace is non-conformant" false (Monitor.conformant report);
  check tbool "stuck closing is reported" true
    (List.exists
       (fun v ->
         let has needle =
           let lv = String.length v and ln = String.length needle in
           let rec go i = i + ln <= lv && (String.sub v i ln = needle || go (i + 1)) in
           go 0
         in
         has "closing")
       report.Monitor.violations);
  match
    Monitor.verdict Monitor.Eventually_always_closed ~legs:[ Pathlab.ends ~flowlinks:0 ] trace
  with
  | Monitor.Violated _ -> ()
  | Monitor.Satisfied | Monitor.Undetermined _ ->
    Alcotest.fail "obligation should be violated on the mutated trace"

let test_injected_duplicate_open_is_flagged () =
  let trace = traced_path ~seed:7 () in
  check tbool "base trace conformant" true (Monitor.conformant (Monitor.replay_packed trace));
  let stray =
    let d = Descriptor.make ~owner:"X" ~version:1 (Address.v "10.9.9.9" 9) [ Codec.G711 ] in
    {
      Trace.seq = 100_000;
      at = 0.0;
      kind =
        Trace.Sig_recv
          {
            chan = "ch0";
            tun = 0;
            box = "L";
            peer = "R";
            initiator = true;
            signal = Signal.Open (Medium.Audio, d);
          };
    }
  in
  let report = Monitor.replay_packed (repack (events_of trace @ [ stray ])) in
  check tbool "injected duplicate open is flagged" false (Monitor.conformant report)

(* --- the monitor vs the model checker -------------------------------- *)

(* The acceptance round-trip: on the configurations the checker proves,
   the monitor must reach the same verdict about the simulated run. *)
let test_monitor_agrees_with_checker () =
  List.iter
    (fun flowlinks ->
      let config =
        Mediactl_mc.Path_model.path_config ~left:Semantics.Open_end ~right:Semantics.Open_end
          ~flowlinks ~chaos:0 ~modifies:0 ()
      in
      let mc = Mediactl_mc.Check.run config in
      check tbool
        (Printf.sprintf "checker passes openslot--%sopenslot"
           (String.concat "" (List.init flowlinks (fun _ -> "fl--"))))
        true
        (Mediactl_mc.Check.passed mc);
      let trace = traced_path ~flowlinks ~seed:11 () in
      let verdict =
        Monitor.verdict Monitor.Always_eventually_flowing ~legs:[ Pathlab.ends ~flowlinks ]
          trace
      in
      check tbool "monitor reproduces the checker's verdict" true
        (verdict = Monitor.Satisfied))
    [ 0; 1 ]

(* --- the monitor, N-way: the 3-party conference star ------------------ *)

(* A traced run of the 3-party conference, mirroring the fleet scenario:
   the star settles untimed, then one user is fully muted and unmuted
   under the timed driver — each a fresh holdslot/flowlink handshake over
   the (possibly lossy) network. *)
let traced_conf ?(loss = 0.0) ~seed () =
  let users = Conference.default_users 3 in
  let names = List.map fst users in
  ( names,
    snd
      (Trace.recording_packed (fun () ->
           let net = fst (Netsys.run (Conference.build ~users)) in
           let sim = Timed.create ~seed ~n:34.0 ~c:20.0 net in
           Timed.observe sim;
           if loss > 0.0 then begin
             let impair = Impair.create ~seed ~default:(Policy.lossy loss) () in
             ignore (Reliable.attach impair sim)
           end;
           let muted = List.nth names (seed mod List.length names) in
           Timed.apply sim (Conference.full_mute ~user:muted);
           Timed.after sim 400.0 (fun sim ->
               Timed.apply sim (Conference.unmute ~user:muted));
           ignore (Timed.run ~until:60_000.0 sim))) )

(* The N-way acceptance round-trip: the checker proves []<> allFlowing
   on the 3-party star model, and the leg-quantified monitor reaches the
   same verdict about a simulated conference run. *)
let test_conf_monitor_agrees_with_checker () =
  let mc =
    Mediactl_mc.Check.run
      (Mediactl_mc.Path_model.conf_config
         ~parties:[ Semantics.Open_end; Semantics.Open_end; Semantics.Open_end ]
         ~flowlinks:1 ~chaos:0 ~modifies:0 ())
  in
  check tbool "checker passes the 3-party star" true (Mediactl_mc.Check.passed mc);
  let names, trace = traced_conf ~seed:11 () in
  check tbool "conference run conformant" true (Monitor.conformant (Monitor.replay_packed trace));
  check tbool "monitor decides []<> allFlowing over all three legs" true
    (Monitor.verdict Monitor.Always_eventually_flowing
       ~legs:(Conference.legs ~users:names) trace
    = Monitor.Satisfied)

let prop_zero_loss_conf_satisfies_monitor =
  QCheck2.Test.make
    ~name:"zero-impairment conference run: conformant and []<> allFlowing satisfied"
    ~count:25
    QCheck2.Gen.(int_range 0 9999)
    (fun seed ->
      let names, trace = traced_conf ~seed () in
      Monitor.conformant (Monitor.replay_packed trace)
      && Monitor.verdict Monitor.Always_eventually_flowing
           ~legs:(Conference.legs ~users:names) trace
         = Monitor.Satisfied)

let prop_lossy_conf_still_satisfied =
  QCheck2.Test.make
    ~name:"lossy conference run: conformant, []<> allFlowing (structural) satisfied"
    ~count:25
    QCheck2.Gen.(pair (int_range 0 9999) (int_range 1 25))
    (fun (seed, loss_pct) ->
      let names, trace = traced_conf ~seed ~loss:(float_of_int loss_pct /. 100.0) () in
      Monitor.conformant (Monitor.replay_packed trace)
      && Monitor.verdict ~structural:true Monitor.Always_eventually_flowing
           ~legs:(Conference.legs ~users:names) trace
         = Monitor.Satisfied)

(* --------------------------------------------------------------------- *)

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "disabled by default" `Quick test_disabled_by_default;
          Alcotest.test_case "recording" `Quick test_recording_captures_and_numbers;
          Alcotest.test_case "jsonl shape" `Quick test_jsonl_roundtrip_shape;
          Alcotest.test_case "packed consumers agree" `Quick test_packed_consumers_agree;
          Alcotest.test_case "ring growth and reuse" `Quick test_ring_growth_and_reuse;
          Alcotest.test_case "ring two-domain isolation" `Quick
            test_ring_two_domain_isolation;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "clean run" `Quick test_metrics_clean_run;
          QCheck_alcotest.to_alcotest prop_histogram_partitions;
        ] );
      ( "monitor",
        [
          QCheck_alcotest.to_alcotest prop_zero_loss_satisfies_monitor;
          QCheck_alcotest.to_alcotest prop_lossy_still_conformant;
          Alcotest.test_case "clean close conformant" `Quick test_clean_close_is_conformant;
          Alcotest.test_case "dropped closeack flagged" `Quick
            test_dropped_closeack_is_flagged;
          Alcotest.test_case "injected duplicate open flagged" `Quick
            test_injected_duplicate_open_is_flagged;
        ] );
      ( "round-trip",
        [ Alcotest.test_case "agrees with model checker" `Slow test_monitor_agrees_with_checker ] );
      ( "conference",
        [
          Alcotest.test_case "3-party star agrees with model checker" `Quick
            test_conf_monitor_agrees_with_checker;
          QCheck_alcotest.to_alcotest prop_zero_loss_conf_satisfies_monitor;
          QCheck_alcotest.to_alcotest prop_lossy_conf_still_satisfied;
        ] );
    ]
