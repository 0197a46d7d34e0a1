"""Roll cProfile self time up into the simulator's layers.

A layer is a set of modules named after them.  Self time of a function
defined in ``src/repro`` goes to the layer of its module; self time of
a builtin, stdlib or third-party function goes to the layer of its
largest caller (by the self time spent on that call edge), followed up
the call graph until a repository function is reached.
"""

from __future__ import annotations

import pstats
from pathlib import Path
from typing import Dict, Optional, Tuple

from benchmarks.e2e import HERE, ROOT

__all__ = ["LAYERS", "layer_metrics", "rollup"]

LAYERS = (
    "sim.core",
    "sim.process",
    "sim.resources",
    "sim.trace",
    "engine",
    "node",
    "nic",
    "net",
    "core.delay",
    "axi",
    "mem",
    "core.overload",
    "obs",
    "units",
    "bench",
    "other",
)

#: Module prefix -> layer; the longest matching prefix wins.  The loop
#: profiler is instrumentation the traced run installs, so it is
#: charged to the benchmark, not to the simulator's ``obs`` layer.
_PREFIXES = {
    "repro.sim.core": "sim.core",
    "repro.sim.process": "sim.process",
    "repro.sim.resources": "sim.resources",
    "repro.sim.trace": "sim.trace",
    "repro.sim.eventlog": "sim.trace",
    "repro.engine": "engine",
    "repro.node": "node",
    "repro.nic": "nic",
    "repro.net": "net",
    "repro.core.delay": "core.delay",
    "repro.axi": "axi",
    "repro.mem": "mem",
    "repro.core.overload": "core.overload",
    "repro.obs": "obs",
    "repro.obs.profiler": "bench",
    "repro.units": "units",
}
_ORDERED = sorted(_PREFIXES, key=len, reverse=True)
_SRC = ROOT / "src"

Func = Tuple[str, int, str]


def _own_layer(filename: str) -> Optional[str]:
    """Layer of a function defined in this repository, else None."""
    if filename.startswith(("~", "<")):
        return None
    path = Path(filename).resolve()
    if path.is_relative_to(HERE):
        return "bench"
    if not path.is_relative_to(_SRC):
        return None
    module = ".".join(path.relative_to(_SRC).with_suffix("").parts)
    for prefix in _ORDERED:
        if module == prefix or module.startswith(prefix + "."):
            return _PREFIXES[prefix]
    return "other"


def rollup(stats: pstats.Stats) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Self seconds and calls charged to each layer."""
    table = stats.stats  # func -> (cc, nc, tt, ct, callers)
    own: Dict[str, Optional[str]] = {}
    resolved: Dict[Func, str] = {}

    def layer_of(func: Func, seen: Tuple[Func, ...] = ()) -> str:
        if func in resolved:
            return resolved[func]
        filename = func[0]
        if filename not in own:
            own[filename] = _own_layer(filename)
        layer = own[filename]
        if layer is None:
            callers = table[func][4] if func in table else {}
            if not callers or func in seen:
                layer = "other"
            else:
                top = max(callers, key=lambda c: (callers[c][2], c))
                layer = layer_of(top, seen + (func,))
        resolved[func] = layer
        return layer

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for func, (_cc, nc, tt, _ct, _callers) in table.items():
        layer = layer_of(func)
        self_s[layer] += tt
        calls[layer] += nc
    return self_s, calls


def layer_metrics(stats: pstats.Stats, wall_s: float, txns: int) -> Dict[str, float]:
    """``<layer>.self_us_per_txn|share|calls_per_txn`` for every layer."""
    self_s, calls = rollup(stats)
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_us_per_txn"] = self_s[layer] / txns * 1e6
        out[f"{layer}.share"] = self_s[layer] / wall_s
        out[f"{layer}.calls_per_txn"] = calls[layer] / txns
    return out
