"""bench/tracing.py wraps cellres by attribute name from outside the
package; a rename in src/ must fail here, not silently drop a span or a
counter from `bench/run.py --trace`."""

import importlib.util
import sys
from pathlib import Path

from cellres import cli, rules

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
RUNNING = "x1*x2, x1*x3, x1*x5, x2*x3, x2*x5, x3*x5, x4*x5"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("cellres_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Api:
    """The already imported cellres modules, in the shape bench/run.py
    hands the tracer."""

    def __init__(self, layers):
        for layer in layers:
            setattr(self, layer, sys.modules["cellres." + layer])

    @staticmethod
    def modules():
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "cellres" or name.startswith("cellres.")
        ]


def test_tracer_counts_enumerate_rules_and_uninstalls(capsys):
    tracing = _load_tracing()
    tracer = tracing.Tracer(_Api(tracing.LAYERS))
    tracer.install()
    try:
        patches = list(tracer._patches)
        assert cli.main(["enumerate-rules", RUNNING]) == 0
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert metrics["rules.rules_admitted"] == 6
    assert metrics["ekcells.perms_enumerated"] > 0
    assert metrics["trace.spans"] > 0
    patched = {(owner, attr) for owner, attr, _ in patches}
    assert (rules, "enumerate_regular_rules") in patched
    assert (cli, "rule_family") in patched
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, (owner, attr)
    assert tracer._patches == []
