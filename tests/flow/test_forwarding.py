"""Regression: every knob the runner CLI forwards is accounted for.

The runner's ``run_experiment(...)`` call is the repo's cache-soundness
chokepoint: a new CLI flag forwarded there without joining the cache
key (or carrying a reviewed sanction) is exactly the stale-result bug
the flow analyzer exists to catch.  This test extracts the forwarded
parameter names from the runner's AST and checks each against the
boundary account the analyzer derives — so adding ``--foo`` to the CLI
without keying or sanctioning ``foo`` fails here, not in production.
"""

import ast

from repro.flow import build_manifest

from .conftest import REPO_ROOT

RUNNER = REPO_ROOT / "src" / "repro" / "experiments" / "runner.py"


def _forwarded_params():
    """Parameter names the runner CLI passes into ``run_experiment``."""
    tree = ast.parse(RUNNER.read_text(encoding="utf-8"))
    run_experiment_params = None
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name != "run_experiment":
            continue
        params = set()
        for position, _arg in enumerate(node.args):
            # Positional forwards map onto run_experiment's signature.
            params.add(("positional", position))
        for keyword in node.keywords:
            if keyword.arg is not None:
                params.add(keyword.arg)
        run_experiment_params = params
    assert run_experiment_params, "runner no longer calls run_experiment?"
    return run_experiment_params


class TestRunnerForwarding:
    def test_call_site_found_with_expected_surface(self):
        forwarded = _forwarded_params()
        named = {p for p in forwarded if isinstance(p, str)}
        # The runner currently forwards one positional (experiment_id)
        # plus these keywords; extending the CLI extends this set.
        assert {"seed", "fast", "jobs", "cache", "policy"} <= named

    def test_every_forwarded_param_is_keyed_sanctioned_or_a_handle(
        self, real_tree
    ):
        report = real_tree["flow"]
        manifest = build_manifest(report)
        boundary = manifest["cache_boundaries"][
            "repro.experiments.run_experiment"
        ]
        accounted = set(boundary["key_params"])
        accounted |= set(boundary["sanctioned_params"])
        signature_params = list(
            report.context.project.modules["repro.experiments"]
            .functions["run_experiment"]
            .params
        )
        handles = {p for p in signature_params if "cache" in p.lower()}
        accounted |= handles
        forwarded = set()
        for item in _forwarded_params():
            if isinstance(item, str):
                forwarded.add(item)
            else:
                forwarded.add(signature_params[item[1]])
        unaccounted = sorted(forwarded - accounted)
        assert unaccounted == [], (
            "runner CLI forwards parameter(s) the cache key does not "
            f"cover and no sanction acknowledges: {unaccounted}; either "
            "fold them into the key config in run_experiment or add a "
            "reasoned `# repro-lint: disable=RPL401 ...` on the "
            "parameter's signature line"
        )

    def test_influence_analysis_sees_every_named_forward(self, real_tree):
        """Each forwarded knob must at least appear in run_experiment's
        signature — a renamed/removed parameter means the regression
        test (and the CLI) drifted from the boundary."""
        report = real_tree["flow"]
        signature_params = set(
            report.context.project.modules["repro.experiments"]
            .functions["run_experiment"]
            .params
        )
        named = {p for p in _forwarded_params() if isinstance(p, str)}
        assert named <= signature_params
