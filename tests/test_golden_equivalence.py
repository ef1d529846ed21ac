"""Golden equivalence pin of the simulated results of the CCATB stack.

Host-side optimisations of the kernel, the CAM and the traffic masters
must not move a single simulated number.  This test hashes four
groups of simulated output and compares each digest with
``tests/data/golden_equivalence.json``, so a failure names the group
that moved:

* ``explore/<workload>`` -- ``run_point(...).to_dict()`` (without its
  host-time field) over the 60-config E3 design space, for each of the
  four ``standard_workloads()`` shortened to 40 transactions a master;
* ``level/<name>`` -- each ``LEVEL_BUILDERS`` level's end time, delta
  count and output hash;
* ``bus/<arbiter>/<mode>`` -- seeded multi-master ``BusCam`` replays:
  2-3 masters, zero, cycle-aligned and sub-cycle gaps, per-request
  completion times and read data;
* ``observed/<level>`` and ``observed/explore/<workload>`` -- the full
  ordered stream of kernel observer hooks (everything but the host-time
  ``wall_s``) on each ``LEVEL_BUILDERS`` level and on a few E3 points,
  which pins the observer-attached scheduler path as well.

Regenerate the golden file only for a deliberate change of simulated
behaviour, and say why in the change description::

    PYTHONPATH=src python tests/test_golden_equivalence.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

from repro.apps import LEVEL_BUILDERS
from repro.cam.arbiters import make_arbiter
from repro.cam.bus import BusCam, BusTiming
from repro.cam.memory import MemorySlave
from repro.explore import DesignSpace, run_point, standard_workloads
from repro.kernel import Module, SimContext, SimTime, ns, us
from repro.obs import SimObserver
from repro.ocp.types import OcpCmd, OcpRequest

GOLDEN = Path(__file__).parent / "data" / "golden_equivalence.json"

#: The E3 design space: 5 fabrics x 3 arbiters x 2 clocks x 2 bursts.
SPACE = DesignSpace(
    fabrics=("plb", "opb", "ahb", "generic", "crossbar"),
    arbiters=("static-priority", "round-robin", "tdma"),
    clock_periods=(ns(10), ns(5)),
    max_bursts=(2, 16),
)
CONFIGS = list(SPACE)
EXPLORE_TXNS = 40

#: Blocks per flow level: enough to fill and drain each pipeline.
LEVEL_BLOCKS = {
    "component-assembly": 6,
    "ccatb": 6,
    "cam": 3,
    "prototype": 2,
}

#: E3 points run with an observer attached: workload -> CONFIGS indices.
OBSERVED_POINTS = {
    "cpu_random": (0, 29, 58),
    "contended": (17, 46),
}

BUS_PERIOD = ns(10)
BUS_PLANS = 24
BUS_REQUESTS = 10
BUS_MEMORY = 1 << 12


def _digest(records) -> str:
    sha = hashlib.sha256()
    for record in records:
        sha.update(json.dumps(record, sort_keys=True,
                              separators=(",", ":")).encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


class HookRecorder(SimObserver):
    """Records every kernel hook call with all its arguments except the
    host-time ``wall_s``: names stand in for processes and events, and
    the blocked-process list of a starved run is reduced to its length.
    """

    def __init__(self):
        self.stream = []

    def on_process_activate(self, process, now_fs):
        self.stream.append(["activate", process.name, now_fs])

    def on_process_suspend(self, process, now_fs, wall_s):
        self.stream.append(["suspend", process.name, now_fs])

    def on_event_fire(self, event, kind, now_fs):
        self.stream.append(["event", event.name, kind, now_fs])

    def on_update_phase(self, channel_count, now_fs):
        self.stream.append(["update", channel_count, now_fs])

    def on_delta_cycle(self, delta_count, now_fs):
        self.stream.append(["delta", delta_count, now_fs])

    def on_time_advance(self, now_fs):
        self.stream.append(["advance", now_fs])

    def on_run_starved(self, context, blocked, now_fs):
        self.stream.append(["starved", len(blocked), now_fs])


def explore_specs(workload: str) -> list:
    return [dataclasses.replace(spec, transactions=EXPLORE_TXNS)
            for spec in standard_workloads()[workload]]


def point_dict(workload: str, index: int, observer=None) -> dict:
    data = run_point(CONFIGS[index], explore_specs(workload),
                     workload_name=workload, seed=index + 1,
                     observer=observer).to_dict()
    data.pop("wall_seconds")
    return data


def explore_records(workload: str) -> list:
    return [point_dict(workload, index) for index in range(len(CONFIGS))]


def observed_explore_records(workload: str) -> list:
    records = []
    for index in OBSERVED_POINTS[workload]:
        recorder = HookRecorder()
        point_dict(workload, index, observer=recorder)
        records.extend(recorder.stream)
    return records


def run_level(name: str, builder, observer=None):
    system = builder(LEVEL_BLOCKS[name])
    if observer is not None:
        system.ctx.attach_observer(observer)
    if name == "prototype":
        # the free-running clock never starves; the sink stops the run
        system.ctx.run(us(1_000_000))
    else:
        system.ctx.run()
    return system


def observed_level_records(name: str, builder) -> list:
    recorder = HookRecorder()
    run_level(name, builder, observer=recorder)
    return recorder.stream


def level_records(name: str, builder) -> list:
    system = run_level(name, builder)
    outputs = json.dumps(system.outputs()).encode("utf-8")
    return [{
        "end_fs": system.ctx.last_activity_time.femtoseconds,
        "deltas": system.ctx.delta_count,
        "outputs_sha256": hashlib.sha256(outputs).hexdigest(),
    }]


def bus_plan(rng: random.Random) -> list:
    """Per-master ``(gap_fs, is_read, beats, addr, data)`` requests."""
    period_fs = BUS_PERIOD.femtoseconds
    masters = []
    for _ in range(rng.choice((2, 3))):
        requests = []
        for _ in range(BUS_REQUESTS):
            beats = rng.randint(1, 8)
            addr = rng.randrange(0, BUS_MEMORY - beats * 4, 4)
            gap_kind = rng.random()
            if gap_kind < 0.4:
                gap_fs = 0
            elif gap_kind < 0.8:
                gap_fs = rng.randint(1, 4) * period_fs
            else:
                gap_fs = rng.randrange(1, 3 * period_fs)
            data = [rng.getrandbits(32) for _ in range(beats)]
            requests.append((gap_fs, rng.random() < 0.5, beats, addr,
                             data))
        masters.append(requests)
    return masters


def replay_bus(plan: list, arbiter: str, timing: BusTiming) -> dict:
    ctx = SimContext(name="golden_bus")
    top = Module("top", ctx=ctx)
    bus = BusCam("bus", top, clock_period=BUS_PERIOD, timing=timing,
                 arbiter=make_arbiter(arbiter))
    memory = MemorySlave("mem", top, size=BUS_MEMORY, read_wait=1,
                         write_wait=2)
    bus.attach_slave(memory, 0, BUS_MEMORY)
    log = [[] for _ in plan]

    def master(index, requests, socket):
        for gap_fs, is_read, beats, addr, data in requests:
            if gap_fs:
                yield SimTime(gap_fs)
            if is_read:
                request = OcpRequest(OcpCmd.RD, addr, burst_length=beats)
            else:
                request = OcpRequest(OcpCmd.WR, addr, data=data,
                                     burst_length=beats)
            response = yield from socket.transport(request)
            log[index].append([ctx.now.femtoseconds, response.ok,
                               list(response.data)])

    for index, requests in enumerate(plan):
        socket = bus.master_socket(f"m{index}", priority=index)
        ctx.register_thread(
            lambda i=index, r=requests, s=socket: master(i, r, s),
            f"master{index}")
    ctx.run()
    return {"log": log, "report": bus.report(),
            "end_fs": ctx.now.femtoseconds}


BUS_MODES = {
    "pipelined": BusTiming(arb_cycles=1, addr_cycles=1, cycles_per_beat=1,
                           pipelined=True, split_rw=True),
    "serial": BusTiming(arb_cycles=1, addr_cycles=1, cycles_per_beat=1),
}


def bus_records(arbiter: str, mode: str) -> list:
    rng = random.Random(f"golden-bus:{arbiter}:{mode}")
    return [replay_bus(bus_plan(rng), arbiter, BUS_MODES[mode])
            for _ in range(BUS_PLANS)]


def groups() -> dict:
    """Every group's name mapped to a zero-argument record builder."""
    table = {}
    for workload in standard_workloads():
        table[f"explore/{workload}"] = (
            lambda w=workload: explore_records(w))
    for name, builder in LEVEL_BUILDERS:
        table[f"level/{name}"] = (
            lambda n=name, b=builder: level_records(n, b))
    for arbiter in ("static-priority", "round-robin"):
        for mode in BUS_MODES:
            table[f"bus/{arbiter}/{mode}"] = (
                lambda a=arbiter, m=mode: bus_records(a, m))
    for name, builder in LEVEL_BUILDERS:
        table[f"observed/{name}"] = (
            lambda n=name, b=builder: observed_level_records(n, b))
    for workload in OBSERVED_POINTS:
        table[f"observed/explore/{workload}"] = (
            lambda w=workload: observed_explore_records(w))
    return table


def compute() -> dict:
    return {name: _digest(build()) for name, build in groups().items()}


def test_simulated_results_match_golden():
    golden = json.loads(GOLDEN.read_text())
    actual = compute()
    assert sorted(actual) == sorted(golden), "group set changed"
    moved = [name for name in sorted(golden) if actual[name] != golden[name]]
    assert not moved, f"simulated results moved in groups: {moved}"


def test_observer_does_not_change_point_results():
    for workload, indices in OBSERVED_POINTS.items():
        for index in indices:
            observed = point_dict(workload, index, observer=HookRecorder())
            assert observed == point_dict(workload, index), (
                f"{workload} point {index} moved with an observer attached")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_equivalence.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
