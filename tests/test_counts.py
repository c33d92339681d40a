"""Call counts: a cost measure that does not drift with the host's speed.

Wall time on a shared host moves by tens of percent between runs, so a
speed claim is checked here by the number of Python-level and C-level
calls the interpreter makes, counted with `sys.setprofile`:

- over two whole trials of the canonical scenario (seed 1000, 2,000 steps),
  HyQL and CFOnly, from the world build to the last step;
- over the warm start of one `cf-wide` world (the canonical scenario widened
  to 101 users and 200 items, 20,000 background events).

The counts run in a fresh interpreter, since the process-wide intern table
of situation keys makes the first trial in a process build keys that later
ones find. They are exact for a given CPython minor version; C-call counts
depend on it, so the pinned values are keyed by `sys.version_info[:2]`, and
another version skips. A change that moves a count states the old and the
new value in CHANGES.md, per step or per event.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

STEPS = 2000
WARM_START = 20_000

# (python calls, C calls) per counted run, by interpreter version
COUNTS = {
    (3, 11): {
        "canonical HyQL trial": (121_520, 154_607),
        "canonical CFOnly trial": (156_474, 192_482),
        "cf-wide warm start": (20_104, 191_143),
    },
}

COUNTER = """
import json, sys
from hyql.bench import load_scenario, run_trial
from hyql.collab import TransactionStore
from hyql.simenv import SimEnv, parse_scenario, world_from_scenario

STEPS, WARM_START = int(sys.argv[1]), int(sys.argv[2])
EVENTS = ("call", "return", "c_call", "c_return", "c_exception")


def counted(fn):
    counts = dict.fromkeys(EVENTS, 0)

    def profile(frame, event, arg):
        counts[event] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts["call"], counts["c_call"]


canonical = parse_scenario(load_scenario("canonical"))
wide = parse_scenario(dict(load_scenario("canonical"), users=101, items=200,
                           warm_start_events=WARM_START))
env = SimEnv(world_from_scenario(wide, 1000), TransactionStore(len(wide.items)))
print(json.dumps({
    "canonical HyQL trial": counted(lambda: run_trial(
        canonical, {"name": "HyQL", "variant": "HyQL"}, 1000, STEPS)),
    "canonical CFOnly trial": counted(lambda: run_trial(
        canonical, {"name": "CFOnly", "variant": "CFOnly"}, 1000, STEPS)),
    "cf-wide warm start": counted(lambda: env.background_burst(WARM_START)),
}))
"""


@pytest.fixture(scope="module")
def counts():
    proc = subprocess.run([sys.executable, "-c", COUNTER, str(STEPS), str(WARM_START)],
                          cwd=ROOT, check=True, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                                   PYTHONHASHSEED="0"))
    return {name: tuple(value) for name, value in json.loads(proc.stdout).items()}


def pinned():
    version = sys.version_info[:2]
    if version not in COUNTS:
        pytest.skip(f"no call counts pinned for Python {version[0]}.{version[1]}")
    return COUNTS[version]


@pytest.mark.parametrize("name", ["canonical HyQL trial", "canonical CFOnly trial",
                                  "cf-wide warm start"])
def test_call_counts_are_pinned(counts, name):
    per = WARM_START if name == "cf-wide warm start" else STEPS
    python_calls, c_calls = counts[name]
    want = pinned()[name]
    assert (python_calls, c_calls) == want, (
        f"{name}: {python_calls / per:.2f} Python and {c_calls / per:.2f} C calls "
        f"per {'event' if per == WARM_START else 'step'}, pinned "
        f"{want[0] / per:.2f} and {want[1] / per:.2f}")
