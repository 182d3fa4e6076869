"""Seeded scenario scripts for the benchmark.

`generate(seed, ticks)` returns the text of a multi-episode scenario that
ends at `ticks - 1` s, so a 1 s tick replays exactly `ticks` ticks. The
same seed always gives the same text. Episodes are drawn in shuffled
blocks that hold one episode of every kind, so every seed covers every
event kind in about the same proportions:

- hot-water and cold-water days (ambient below `t_hot_c` or at/above
  `t_cold_c`) and the narrow normal band between them;
- a thud (three loud sound samples after quiet) followed by a fall;
- help gestures (right, wave), the okay gesture (left) and meaningless ones;
- step-outs past `activation_cm` and back;
- long stays that run past `prolonged_hot_s` and `occupancy_alert_s`
  of `CONFIG_TEXT`.

The program only ever sees the returned text, through `parse_scenario`.
"""

from __future__ import annotations

import random

# Duration alarms shortened so that one scenario of a few minutes holds
# several of them; everything else keeps the bench defaults.
PROLONGED_HOT_S = 60
OCCUPANCY_ALERT_S = 90
CONFIG_TEXT = f"prolonged_hot_s = {PROLONGED_HOT_S}\noccupancy_alert_s = {OCCUPANCY_ALERT_S}\n"
ACTIVATION_CM = 60  # ControllerConfig default

EPISODE_KINDS = ("short", "stepout", "fall", "help", "long_hot", "long_cold")

# A seed that was never run while the benchmark was built, kept for
# confirming later claims on inputs the claim was not tuned on.
HELD_OUT_SEED = 424242


def _near(rng: random.Random) -> int:
    """A standing distance inside the activation range."""
    return rng.randint(10, ACTIVATION_CM - 5)


def _ambient(rng: random.Random, band: str) -> str:
    if band == "hot_water":  # cold day: ambient below t_hot_c
        temp = rng.randint(14, 21)
    elif band == "cold_water":  # hot day: ambient at or above t_cold_c
        temp = rng.randint(24, 31)
    else:  # normal band [t_hot_c, t_cold_c)
        temp = rng.choice((22.2, 22.5, 22.8))
    return f"env temp={temp:g} humidity={rng.randint(15, 95)}"


class _Script:
    def __init__(self) -> None:
        self.lines: list = []

    def at(self, t: int, text: str) -> None:
        self.lines.append(f"at {t} {text}")


def _episode(script: _Script, rng: random.Random, kind: str, t: int) -> int:
    """Emit one occupancy episode starting at t; returns the time it ends."""
    band = {"long_hot": "hot_water", "long_cold": "cold_water"}.get(
        kind, rng.choice(("hot_water", "cold_water", "normal"))
    )
    script.at(t, _ambient(rng, band))
    script.at(t, f"person enter distance={_near(rng)}")
    if kind == "short":
        t += rng.randint(8, 20)
        script.at(t, f"person move distance={_near(rng)}")
        t += rng.randint(8, 25)
        script.at(t, f"gesture code={rng.choice(('up', 'down', 'forward', 'clockwise'))}")
        t += rng.randint(5, 15)
    elif kind == "stepout":
        t += rng.randint(10, 25)
        script.at(t, f"person move distance={rng.randint(ACTIVATION_CM + 10, 150)}")
        t += rng.randint(5, 15)
        script.at(t, f"person move distance={_near(rng)}")
        t += rng.randint(10, 30)
    elif kind == "fall":
        t += rng.randint(8, 20)
        script.at(t, "sound intensity=0.9")
        t += 3  # three loud samples after quiet make a thud
        script.at(t, "sound intensity=0")
        script.at(t, "person fall")
        t += rng.randint(6, 15)
    elif kind == "help":
        t += rng.randint(5, 15)
        script.at(t, f"gesture code={rng.choice(('right', 'wave'))}")
        t += rng.randint(3, 10)
        script.at(t, "gesture code=left")
        t += rng.randint(5, 15)
    elif kind == "long_hot":
        t += rng.randint(20, 40)
        script.at(t, f"env humidity={rng.randint(60, 99)}")
        t += OCCUPANCY_ALERT_S - 20 + rng.randint(5, 20)
    elif kind == "long_cold":
        t += OCCUPANCY_ALERT_S + rng.randint(5, 20)
    else:
        raise ValueError(f"unknown episode kind {kind!r}")
    script.at(t, "person leave")
    return t


def generate(seed: int, ticks: int) -> str:
    """Scenario text for `seed` whose end event lies at `ticks - 1` s."""
    if ticks < 400:
        raise ValueError("ticks must be >= 400 to hold several episodes")
    rng = random.Random(seed)
    end = ticks - 1
    script = _Script()
    script.lines.append(f"# benchmark scenario, seed {seed}, {ticks} ticks")
    script.at(0, _ambient(rng, "normal"))
    t = 0
    kinds: list = []
    while True:
        if not kinds:
            kinds = list(EPISODE_KINDS)
            rng.shuffle(kinds)
        t += rng.randint(5, 20)
        if rng.random() < 0.3:  # noise in the empty room: a thud with no fall geometry
            script.at(t, "sound intensity=0.8")
            script.at(t + 12, "sound intensity=0")
            t += 14
        # Longest episode: 40 + (OCCUPANCY_ALERT_S - 20 + 20) s plus slack.
        if t + OCCUPANCY_ALERT_S + 60 > end:
            break
        t = _episode(script, rng, kinds.pop(), t)
    script.at(end, "end")
    return "\n".join(script.lines) + "\n"
