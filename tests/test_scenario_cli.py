import json
import os
import subprocess
import sys
import threading
import time

import pytest
import yaml

from conftest import DEMO_CONFIG, DEMO_SCENARIO
from helpers import control, deep_line

import twinrt.cli as cli_mod
import twinrt.config as config_mod
import twinrt.scenario as scenario_mod
from twinrt.cli import main
from twinrt.data import DataManager, PropertyType, Selector
from twinrt.engine import SyncReason
from twinrt.errors import ConfigParseError, Disconnected, ScenarioAssertionFailed
from twinrt.runtime import TwinRuntime, inspect_config
from twinrt.scenario import ScenarioRunner


class TestScenarioParsing:
    def test_step_forms(self):
        script = scenario_mod.loads("""
steps:
  - tick
  - tick: 3
  - asset-set: {gateway: g, property: p, value: 1.0}
  - service-off: kpi
  - expect-model: {model: m, element: e, property: p, value: 2}
""")
        kinds = [s.kind for s in script.steps]
        assert kinds == ["tick", "tick", "asset-set", "service-off", "expect-model"]
        assert script.steps[0].payload == {"count": 1}
        assert script.steps[1].payload == {"count": 3}
        assert script.steps[3].payload == {"service": "kpi"}

    def test_bare_list_without_steps_key(self):
        script = scenario_mod.loads("- tick\n- tick: 2\n")
        assert len(script.steps) == 2

    @pytest.mark.parametrize("text", [
        "steps:\n  - explode",
        "steps:\n  - tick: zero",
        "steps:\n  - tick: 0",
        "steps:\n  - {tick: 1, asset-set: {}}",
        "steps: {not: a list}",
        "steps:\n  - service-on: {}",
        "steps:\n  - expect-record-count: {selector: {tick_from: '1'}, count: 0}",
        pytest.param(b"steps:\n  - asset-set: {gateway: tank01, property: caf\xe9, value: 1}\n",
                     id="latin-1"),
        pytest.param("steps:\n  - tick: !!int x", id="int-tag"),
        pytest.param("steps:\n  - tick: !!bool maybe", id="bool-tag"),
        pytest.param("steps:\n  - tick: !!timestamp nope", id="timestamp-tag"),
        pytest.param("steps:\n  - tick: !!int ''", id="empty-int-tag"),
        pytest.param("steps:\n  - tick: !!float x", id="float-tag"),
    ])
    def test_bad_scripts(self, text, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        with pytest.raises(ConfigParseError):
            scenario_mod.load(path)

    @pytest.mark.parametrize("step", [
        "tick: true",
        "tick: {count: true}",
        "asset-set: {gateway: tank01}",
        "asset-set: {gateway: tank01, property: level}",
        "asset-raise: {gateway: tank01}",
        "model-edit: {manager: plant, operator: set_property}",
        "expect-model: {model: tank, element: main, property: level}",
        "expect-record-count: {selector: {origin: operator}}",
        "expect-record-count: {selector: {origin: operator}, count: true}",
        "service-on: 5",
    ])
    def test_a_step_is_read_strictly(self, step):
        with pytest.raises(ConfigParseError, match=r"^step 1: "):
            scenario_mod.loads(f"steps:\n  - tick\n  - {step}\n")

    @pytest.mark.parametrize("step, field", [
        ("asset-set: {gateway: [1], property: level, value: 1}", "asset-set gateway"),
        ("asset-set: {gateway: tank01, property: '', value: 1}", "asset-set property"),
        ("asset-raise: {gateway: tank01, event: 5}", "asset-raise event"),
        ("model-edit: {manager: [1], operator: set_property, model: tank}", "model-edit manager"),
        ("model-edit: {manager: plant, operator: {a: 1}, model: tank}", "model-edit operator"),
        ("expect-model: {model: [1], element: main, property: level, value: 0}",
         "expect-model model"),
        ("expect-model: {model: tank, element: null, property: level, value: 0}",
         "expect-model element"),
        ("expect-model: {model: tank, element: main, property: level, value: 0, "
         "tolerance: x}", "expect-model tolerance"),
        ("expect-model: {model: tank, element: main, property: level, value: 0, "
         "tolerance: true}", "expect-model tolerance"),
        ("expect-model: {model: tank, element: main, property: level, value: 0, "
         "tolerance: -0.1}", "expect-model tolerance"),
    ])
    def test_a_step_field_of_the_wrong_type_names_step_and_field(self, step, field):
        with pytest.raises(ConfigParseError, match=rf"^step 1: {field} must be "):
            scenario_mod.loads(f"steps:\n  - tick\n  - {step}\n")

    def test_a_non_text_id_exits_2(self, capsys, tmp_path):
        script = tmp_path / "s.yaml"
        script.write_text("steps:\n  - asset-set: {gateway: [1], property: level, value: 1}\n")
        assert main(["scenario", str(script), "--config", str(DEMO_CONFIG)]) == 2
        assert "step 0: asset-set gateway must be non-empty text" in capsys.readouterr().err


# a bare twin with an integer model property and a simulated echo asset
FIT_CONFIG = """
twin: fit
gateways:
  - id: echo01
    endpoint: tcp://127.0.0.1:0
    simulate: {model: echo}
    elements:
      - {name: pad, kind: property, type: text, access: rw}
      - {name: gain, kind: property, type: real, access: rw}
      - {name: count, kind: property, type: integer, access: rw}
      - {name: lit, kind: property, type: boolean, access: rw}
      - {name: pulse, kind: event, payload: integer}
      - {name: echo, kind: function, args: [text], result: text}
      - {name: sum, kind: function, args: [real, real], result: real}
      - {name: div, kind: function, args: [real, real], result: real}
languages: [{id: lang, kinds: {Node: {x: real, n: integer}}}]
managers: [{id: m, models: [mdl]}]
models:
  - id: mdl
    language: lang
    elements: [{id: e, kind: Node, properties: {x: 0.0, n: 0}}]
"""


class TestScenarioExecution:
    def run_steps(self, text):
        runtime = TwinRuntime(config_mod.load(DEMO_CONFIG))
        try:
            runner = ScenarioRunner(runtime)
            runner.run(scenario_mod.loads(text))
            return runtime, runner
        finally:
            runtime.close()

    def test_expect_model_failure_names_step(self):
        with pytest.raises(ScenarioAssertionFailed) as excinfo:
            self.run_steps("""
steps:
  - tick: 1
  - expect-model: {model: tank, element: main, property: level, value: 99.0}
""")
        assert excinfo.value.step_index == 1
        assert "expected: 99.0" in str(excinfo.value)

    def test_expect_decision_failure_shows_last_tick(self):
        with pytest.raises(ScenarioAssertionFailed) as excinfo:
            self.run_steps("""
steps:
  - tick: 1
  - expect-decision: {mapping: m-level, action: push-dt-to-as}
""")
        assert "matched nothing" in str(excinfo.value)

    def test_model_edit_int_is_fitted_to_real_schema(self):
        self.run_steps("""
steps:
  - model-edit: {manager: plant, operator: set_property, model: tank,
                 args: {element: main, property: valve_target, value: 1}}
  - expect-model: {model: tank, element: main, property: valve_target, value: 1.0}
""")
        # an integral real given for an integer property fits the other way
        runtime = TwinRuntime(config_mod.loads(FIT_CONFIG))
        try:
            ScenarioRunner(runtime).run(scenario_mod.loads("""
steps:
  - model-edit: {manager: m, operator: set_property, model: mdl,
                 args: {element: e, property: n, value: 2.0}}
  - asset-set: {gateway: echo01, property: count, value: 3.0}
  - asset-set: {gateway: echo01, property: gain, value: 2}
"""))
            n = runtime.model_value("mdl", "e", "n")
            state = runtime.asset_state("echo01")
        finally:
            runtime.close()
        assert n == 2 and isinstance(n, int)
        assert state["count"] == 3 and isinstance(state["count"], int)
        assert state["gain"] == 2.0 and isinstance(state["gain"], float)

    @pytest.mark.parametrize("args", [
        "{element: [main], property: valve_target, value: 1}",
        "{element: main, property: [valve_target], value: 1}",
    ], ids=["element", "property"])
    def test_model_edit_with_a_non_text_id_is_an_error(self, capsys, tmp_path, args):
        script = tmp_path / "s.yaml"
        script.write_text("steps:\n  - model-edit: {manager: plant, operator: set_property, "
                          f"model: tank, args: {args}}}\n")
        assert main(["scenario", str(script), "--config", str(DEMO_CONFIG)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_deleting_a_mapped_element_suspends_its_syncs_until_it_is_made_again(self):
        runtime, _ = self.run_steps("""
steps:
  - tick
  - model-edit: {manager: plant, operator: delete_element, model: tank,
                 args: {element: main}}
  - tick: 2
  - expect-decision: {mapping: m-level, action: no-op, reason: suspended}
  - model-edit: {manager: plant, operator: create_element, model: tank,
                 args: {element: main, kind: Tank,
                        properties: {level: 0, capacity: 10, valve_target: 0}}}
  - tick
  - expect-decision: {mapping: m-level, action: pull-as-to-dt, reason: scheduled}
""")
        details = {d.detail for d in runtime.engine.decisions if d.tick in (2, 3)}
        assert details == {"model side unresolved"}
        assert runtime.model_value("tank", "main", "level") == 0.2  # 4 ticks of 0.05

    def test_service_off_stops_hooks(self):
        runtime, _ = self.run_steps("""
steps:
  - service-off: kpi
  - service-off: guard
  - tick: 8
  - expect-record-count: {selector: {origin: service:kpi}, count: 0}
""")

    def test_asset_raise_triggers_a_mapping_and_service_on_resumes_a_service(self):
        # m-level pulls only when the tank raises overflow
        doc = yaml.safe_load(DEMO_CONFIG.read_text())
        doc["mappings"][0]["schedule"] = {"trigger": {"gateway": "tank01", "event": "overflow"}}
        runtime = TwinRuntime(config_mod.loads(yaml.safe_dump(doc)))
        try:
            ScenarioRunner(runtime).run(scenario_mod.loads("""
steps:
  - service-off: kpi
  - tick: 4
  - expect-record-count: {selector: {origin: service:kpi}, count: 0}
  - service-on: kpi
  - tick: 4
  - expect-record-count: {selector: {origin: service:kpi}, count: 1}
  - expect-model: {model: tank, element: main, property: level, value: 0.0}
  - asset-raise: {gateway: tank01, event: overflow, payload: 9.0}
  - tick
  - expect-decision: {mapping: m-level, action: pull-as-to-dt, reason: triggered}
  - expect-model: {model: tank, element: main, property: level, value: 0.45, tolerance: 1.0e-9}
"""))
            pulls = [(d.tick, d.reason) for d in runtime.engine.decisions
                     if d.mapping_id == "m-level"]
        finally:
            runtime.close()
        assert pulls == [(9, SyncReason.TRIGGERED)]


class TestCliCommands:
    def test_classify_table_and_json(self, capsys):
        assert main(["classify", "--config", str(DEMO_CONFIG)]) == 0
        out = capsys.readouterr().out
        assert "digital-twin" in out
        assert main(["classify", "--config", str(DEMO_CONFIG), "--format", "json"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["category"] == "digital-twin"
        assert verdict["evidence"] == ["m-level", "m-valve"]

    def test_audit_exit_codes(self, capsys, tmp_path):
        assert main(["audit", "--config", str(DEMO_CONFIG)]) == 0
        capsys.readouterr()
        # a config with an ungated service audits as violated -> nonzero
        bad = tmp_path / "bad.yaml"
        bad.write_text(DEMO_CONFIG.read_text().replace(
            "    grant: [read-model:tank, ingest-data]\n", ""))
        assert main(["audit", "--config", str(bad)]) != 0
        out = capsys.readouterr().out
        assert "violated" in out

    def test_a_bad_explicit_tag_is_a_configuration_error(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("twin: !!int x\n")
        proc = subprocess.run([sys.executable, "-m", "twinrt.cli", "audit", "--config", str(bad)],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 2
        assert "invalid YAML: cannot read 'x' as !!int" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("text, refusal", [
        ("twin: t\ndata: &d {journal: j.ndjson}\nspare: *d\n", "found anchor &d"),
        ("twin: t\n<<: {data: {journal: j.ndjson}}\n", "found merge key <<"),
        ("twin: t\nx: " + "[" * 3000 + "]" * 3000 + "\n", "found a collection nested deeper"),
    ], ids=["alias", "merge-key", "nested-3000-deep"])
    def test_a_configuration_that_is_not_a_shallow_tree_exits_2(self, capsys, tmp_path,
                                                                 text, refusal):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        for command in (["audit"], ["run", "--timer", "10", "--max-ticks", "1"]):
            assert main([*command, "--config", str(bad)]) == 2
            assert f"invalid YAML: {refusal}" in capsys.readouterr().err

    def test_audit_json_format(self, capsys):
        assert main(["audit", "--config", str(DEMO_CONFIG), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["results"]) == 7
        assert report["violated"] == []

    @pytest.mark.parametrize("command", ["classify", "audit"])
    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_report_output_is_bit_stable(self, capsys, command, fmt):
        def render():
            assert main([command, "--config", str(DEMO_CONFIG), "--format", fmt]) == 0
            return capsys.readouterr().out
        assert render() == render()

    def test_run_requires_mode(self, capsys):
        assert main(["run", "--config", str(DEMO_CONFIG)]) == 2

    def test_run_gates_on_audit(self, capsys, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text(DEMO_CONFIG.read_text().replace(
            "    grant: [read-model:tank, ingest-data]\n", ""))
        script = tmp_path / "s.yaml"
        script.write_text("steps:\n  - tick: 1\n")
        assert main(["run", "--config", str(bad), "--script", str(script)]) == 3
        # --force overrides; the ungated service simply gets denied at runtime
        assert main(["run", "--config", str(bad), "--script", str(script),
                     "--force"]) == 0

    def test_a_forced_run_without_model_linkage_records_unlinked(self, capsys, tmp_path):
        config = tmp_path / "unlinked.yaml"
        config.write_text(DEMO_CONFIG.read_text().replace("model_linkage: true",
                                                          "model_linkage: false"))
        # the kpi monitor asks to link each mean, so it ingests none
        script = tmp_path / "s.yaml"
        script.write_text(DEMO_SCENARIO.read_text().replace(
            "{origin: service:kpi}, count: 3}", "{origin: service:kpi}, count: 0}"))
        journal, decisions = tmp_path / "j.ndjson", tmp_path / "d.log"
        assert main(["run", "--config", str(config), "--script", str(script), "--force",
                     "--journal", str(journal), "--decisions", str(decisions)]) == 0
        assert "scenario ok (15 steps, 12 ticks)" in capsys.readouterr().out
        records = [json.loads(line) for line in journal.read_text().splitlines()]
        assert len(records) == 14 and all(r["link"] is None for r in records)
        notices = [json.loads(line) for line in decisions.read_text().splitlines()
                   if '"kind":"service"' in line]
        assert notices == [{"kind": "service", "tick": tick, "service": "kpi", "event": "error",
                            "detail": "model linkage is disabled in this configuration"}
                           for tick in (4, 8, 12)]

    def test_scenario_subcommand_runs_demo(self, capsys, tmp_path):
        code = main(["scenario", str(DEMO_SCENARIO), "--config", str(DEMO_CONFIG),
                     "--journal", str(tmp_path / "j.ndjson"),
                     "--decisions", str(tmp_path / "d.log")])
        assert code == 0
        assert "scenario ok" in capsys.readouterr().out
        assert (tmp_path / "j.ndjson").exists()
        assert (tmp_path / "d.log").exists()

    def test_failing_scenario_exits_4_with_step_index(self, capsys, tmp_path):
        script = tmp_path / "s.yaml"
        script.write_text("""
steps:
  - tick: 1
  - expect-model: {model: tank, element: main, property: level, value: 42.0}
""")
        assert main(["scenario", str(script), "--config", str(DEMO_CONFIG)]) == 4
        assert "step 1" in capsys.readouterr().err

    @pytest.mark.parametrize("property_name, value", [
        ("level", "true"),  # level is 0.05 after one tick: a bool is no number near it
        ("alarm", "0"),     # alarm is false: a number is no bool, however near
    ])
    def test_a_bool_against_a_number_fails_whatever_the_tolerance(self, capsys, tmp_path,
                                                                   property_name, value):
        config = tmp_path / "tank.yaml"
        config.write_text(DEMO_CONFIG.read_text()
                          .replace("        valve_target: real\n",
                                   "        valve_target: real\n        alarm: boolean\n")
                          .replace("valve_target: 0.0}", "valve_target: 0.0, alarm: false}"))
        script = tmp_path / "s.yaml"
        expect = "{model: tank, element: main, property: %s, value: %s, tolerance: %s}"
        script.write_text("steps:\n  - tick: 1\n"
                          f"  - expect-model: {expect % ('level', 0.05, 0.001)}\n"
                          f"  - expect-model: {expect % ('alarm', 'false', 1.0)}\n"
                          f"  - expect-model: {expect % (property_name, value, 1.0)}\n")
        assert main(["scenario", str(script), "--config", str(config)]) == 4
        err = capsys.readouterr().err
        assert f"step 3: expect-model tank/main.{property_name}" in err

    def test_a_step_lacking_a_field_exits_2(self, capsys, tmp_path):
        script = tmp_path / "s.yaml"
        script.write_text("steps:\n  - asset-set: {gateway: tank01}\n")
        assert main(["scenario", str(script), "--config", str(DEMO_CONFIG)]) == 2
        assert "step 0: asset-set lacks property, value" in capsys.readouterr().err

    def test_inspect_offline(self, capsys):
        assert main(["inspect", "--config", str(DEMO_CONFIG)]) == 0
        out = capsys.readouterr().out
        assert "tank01" in out and "m-level" in out and "kpi" in out

    def test_inspect_single_model_sorted_json(self, capsys):
        assert main(["inspect", "--config", str(DEMO_CONFIG), "--model", "tank",
                     "--format", "json"]) == 0
        model = json.loads(capsys.readouterr().out)
        assert list(model["elements"]) == ["main"]
        assert model["elements"]["main"]["properties"]["capacity"]["value"] == 10.0

    def test_offline_report_is_the_live_report(self):
        config = config_mod.load(DEMO_CONFIG)
        offline = inspect_config(config)
        runtime = TwinRuntime(config)
        try:
            live = runtime.inspect()
        finally:
            runtime.close()
        # only the tick and where a simulated asset was bound may differ
        for report in (offline, live):
            del report["tick"]
            for gateway in report["gateways"]:
                if gateway["simulated"]:
                    del gateway["endpoint"]
        assert offline == live

    def test_inspect_empty_config(self, capsys, tmp_path):
        empty = tmp_path / "empty.yaml"
        empty.write_text("twin: bare\n")
        assert main(["inspect", "--config", str(empty)]) == 0

    def test_config_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "nope.yaml"
        assert main(["classify", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("written, edit, where", [
        pytest.param("window: 4,", "window: [1],", "services[0]", id="window-list"),
        pytest.param("window: 4,", "window: four,", "services[0]", id="window-text"),
        pytest.param("window: 4, ", "", "services[0]", id="window-missing"),
        pytest.param("bound: 8.0,", "bound: high,", "services[1]", id="bound-text"),
        pytest.param("valve: 0.5,", "valve: [1],", "gateways[0].simulate", id="valve-list"),
        pytest.param("valve: 0.5,", "valve: open,", "gateways[0].simulate", id="valve-text"),
        pytest.param("valve: 0.5,", "valv: 0.5,", "gateways[0].simulate", id="unknown-param"),
        pytest.param("valve: 0.5,", "valve: '0.5',", "gateways[0].simulate", id="valve-quoted"),
        pytest.param("0.5, capacity: 10.0,", "0.5, capacity: true,", "gateways[0].simulate",
                     id="capacity-bool"),
        pytest.param("tank\n      step_ms: 100\n      seed: 1\n      params: {valve: 0.5, "
                     "capacity: 10.0, inflow: 1.0, outflow: 0.0, overflow_level: 8.0}",
                     "echo\n      step_ms: 100\n      seed: 1\n      params: {anything: [1]}",
                     "gateways[0].simulate", id="echo-param"),
        pytest.param("model: tank\n", "model: tnk\n", "gateways[0].simulate",
                     id="unknown-model"),
        pytest.param("window: 4,", "window: 1.5,", "services[0]", id="window-real"),
        pytest.param("window: 4,", "window: true,", "services[0]", id="window-bool"),
        pytest.param("window: 4,", "window: '4',", "services[0]", id="window-quoted"),
        pytest.param("bound: 8.0,", "bound: '8',", "services[1]", id="bound-quoted"),
        pytest.param("function: flush}", "function: flush, args: ab}", "services[1]",
                     id="args-text"),
        pytest.param("element: main, property: level, bound",
                     "element: '', property: level, bound", "services[1]", id="element-empty"),
        pytest.param("builtin: kpi_monitor\n", "builtin: kpi_monitor\n    hooks: [on-decision]\n",
                     "services[0].hooks", id="hooks-on-a-builtin"),
        pytest.param("command-gateway:tank01]\n",
                     "command-gateway:tank01]\n  - {id: probe, hooks: [on-tick]}\n",
                     "services[2].hooks", id="hooks-on-a-service"),
    ])
    @pytest.mark.parametrize("command", [["run", "--timer", "10", "--max-ticks", "3"],
                                         ["audit"]], ids=["run", "audit"])
    def test_bad_builtin_or_asset_parameters_are_configuration_errors(
            self, capsys, tmp_path, written, edit, where, command):
        text = DEMO_CONFIG.read_text()
        assert text.count(written) == 1
        bad = tmp_path / "bad.yaml"
        bad.write_text(text.replace(written, edit))
        assert main([command[0], "--config", str(bad), *command[1:]]) == 2
        assert f"configuration error: {where}: " in capsys.readouterr().err

    def test_an_unknown_builtin_is_refused_by_audit_and_at_start(self, capsys, tmp_path):
        text = DEMO_CONFIG.read_text()
        assert text.count("builtin: kpi_monitor") == 1
        bad = tmp_path / "bad.yaml"
        bad.write_text(text.replace("builtin: kpi_monitor", "builtin: nope"))
        run = ["run", "--config", str(bad), "--timer", "10", "--max-ticks", "3"]
        assert main(["audit", "--config", str(bad)]) == 3
        assert main(run) == 3
        assert "names unknown builtin 'nope'" in capsys.readouterr().err
        # forced past the audit, the runtime cannot build it
        assert main([*run, "--force"]) == 1
        assert "error: unknown builtin service 'nope'" in capsys.readouterr().err

    def test_a_delegation_to_no_manager_is_refused_by_audit_and_at_start(self, capsys,
                                                                         tmp_path):
        text = DEMO_CONFIG.read_text()
        written = "    delegations: []\n"
        assert text.count(written) == 1
        bad = tmp_path / "bad.yaml"
        bad.write_text(text.replace(written, written + "  - id: ops\n    models: []\n"
                                    "    delegations: [{operator: set_property, to: nobody}]\n"))
        run = ["run", "--config", str(bad), "--timer", "10", "--max-ticks", "3"]
        assert main(["audit", "--config", str(bad)]) == 3
        assert "unknown manager 'nobody'" in capsys.readouterr().out
        assert main(run) == 3
        assert ("C7: the model registry refuses the configuration: unknown manager 'nobody'"
                in capsys.readouterr().err)
        # forced past the audit, start-up refuses it as an error, not a crash
        proc = subprocess.run([sys.executable, "-m", "twinrt.cli", *run, "--force"],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 1
        assert proc.stderr == "error: unknown manager 'nobody'\n"


class TestHistoryCli:
    @pytest.fixture()
    def journal(self, tmp_path, capsys):
        path = tmp_path / "j.ndjson"
        code = main(["scenario", str(DEMO_SCENARIO), "--config", str(DEMO_CONFIG),
                     "--journal", str(path)])
        assert code == 0
        capsys.readouterr()  # drop the scenario's own output
        return path

    def test_history_json_is_newline_delimited_in_id_order(self, capsys, journal):
        assert main(["history", "--journal", str(journal),
                     "--origin", "actual-system", "--format", "json"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert len(lines) == 13
        ids = [l["id"] for l in lines]
        assert ids == sorted(ids)
        assert all(l["properties"]["origin"]["source"] == "actual-system"
                   for l in lines)

    def test_history_origin_with_id_filter(self, capsys, journal):
        assert main(["history", "--journal", str(journal),
                     "--origin", "service:kpi", "--format", "json"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert len(lines) == 3
        assert all(l["properties"]["origin"] == {"source": "service", "id": "kpi"}
                   for l in lines)

    def test_history_table(self, capsys, journal):
        assert main(["history", "--journal", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "actual-system:tank01" in out

    def test_a_journal_entry_nested_too_deep_is_an_error(self, capsys, journal):
        lines = journal.read_bytes().split(b"\n")
        lines[1] = b'{"deep":' + b"[" * 3000 + b"]" * 3000 + b"," + lines[1][1:]
        journal.write_bytes(b"\n".join(lines))
        assert main(["history", "--journal", str(journal)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: journal entry 2 is malformed: ")
        assert "deeper than" in err

    def test_history_needs_a_source(self, capsys, monkeypatch):
        monkeypatch.delenv("TWIN_CONTROL_ADDR", raising=False)
        assert main(["history"]) == 1


class TestControlSocket:
    @pytest.fixture()
    def running_twin(self, tmp_path):
        runtime = TwinRuntime(config_mod.load(DEMO_CONFIG),
                              journal_path=tmp_path / "j.ndjson")
        endpoint = runtime.start_control("tcp://127.0.0.1:0")
        ticker = threading.Event()

        def loop():
            # control requests are answered between ticks, on this thread
            while not ticker.is_set():
                runtime.serve_control(0.02)
                runtime.step_assets(1)
                runtime.tick()

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        yield runtime, endpoint
        ticker.set()
        thread.join(timeout=5)
        runtime.close()

    def test_a_line_nested_too_deep_closes_that_connection_alone(self, running_twin):
        from twinrt.wire import connect_channel

        _, endpoint = running_twin
        deep, other = connect_channel(endpoint), connect_channel(endpoint)
        try:
            deep.send_raw(deep_line(3000, b'"id":1,"op":"ctl.status"'))
            with pytest.raises(Disconnected):
                deep.recv(time.monotonic() + 5)
            status = other.request({"op": "ctl.status", "id": 2}, timeout=5)
            assert status["op"] == "status" and status["twin"] == "demo-tank"
        finally:
            deep.close()
            other.close()

    def test_invoke_flush_prints_true(self, capsys, running_twin):
        _, endpoint = running_twin
        assert main(["invoke", "tank01", "flush", "--control", endpoint]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_invoke_unknown_function_fails(self, capsys, running_twin):
        _, endpoint = running_twin
        assert main(["invoke", "tank01", "selfdestruct", "--control", endpoint]) == 1

    def test_invoke_without_control_address(self, capsys, monkeypatch):
        monkeypatch.delenv("TWIN_CONTROL_ADDR", raising=False)
        assert main(["invoke", "tank01", "flush"]) == 1
        assert "not running" in capsys.readouterr().err

    def test_control_addr_env_var(self, capsys, running_twin, monkeypatch):
        _, endpoint = running_twin
        monkeypatch.setenv("TWIN_CONTROL_ADDR", endpoint)
        assert main(["invoke", "tank01", "flush"]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_history_over_control_socket(self, capsys, running_twin):
        runtime, endpoint = running_twin
        deadline = time.time() + 5
        while runtime.data.count() == 0 and time.time() < deadline:
            time.sleep(0.02)
        assert main(["history", "--control", endpoint, "--origin", "actual-system",
                     "--format", "json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and json.loads(lines[0])["id"] == 1

    def test_history_longer_than_a_wire_line_arrives_whole_and_in_id_order(self, capsys):
        from twinrt.data import HISTORICAL, last_update, origin_operator, timeliness
        from twinrt.wire import MAX_LINE_BYTES

        runtime = TwinRuntime(config_mod.load(DEMO_CONFIG))
        props = [origin_operator(), timeliness(HISTORICAL), last_update(0)]
        for i in range(3000):
            runtime.data.ingest(f"{i:04d}" + "x" * 500, props)
        endpoint = runtime.start_control("tcp://127.0.0.1:0")
        stop = threading.Event()

        def serve():
            while not stop.is_set():
                runtime.serve_control(0.02)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            assert main(["history", "--control", endpoint, "--origin", "operator",
                         "--format", "json"]) == 0
        finally:
            stop.set()
            thread.join(timeout=5)
            runtime.close()
        out = capsys.readouterr().out
        assert len(out.encode("utf-8")) > MAX_LINE_BYTES
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["id"] for r in records] == list(range(1, 3001))
        assert [r["value"][:4] for r in records] == [f"{i:04d}" for i in range(3000)]

    def test_history_pages_by_limit_and_after_id(self, running_twin):
        from twinrt.wire import connect_channel

        runtime, endpoint = running_twin
        deadline = time.time() + 5
        while runtime.data.count() < 5 and time.time() < deadline:
            time.sleep(0.02)
        channel = connect_channel(endpoint)
        try:
            page = channel.request({"op": "ctl.history", "id": 1, "limit": 2, "after_id": 2},
                                   timeout=5)
        finally:
            channel.close()
        assert [r["id"] for r in page["records"]] == [3, 4]

    def test_inspect_over_control_socket(self, capsys, running_twin):
        _, endpoint = running_twin
        assert main(["inspect", "--control", endpoint, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["twin"] == "demo-tank"
        assert "tank" in report["models"]

    def test_out_of_process_service_calls_are_grant_checked(self, running_twin):
        from twinrt.wire import connect_channel

        _, endpoint = running_twin
        channel = connect_channel(endpoint)
        try:
            # guard holds command-gateway:tank01, so flush is allowed
            channel.send({"op": "ctl.call", "id": 1, "service": "guard",
                          "request": {"kind": "invoke-function", "gateway": "tank01",
                                      "function": "flush", "args": []}})
            reply = channel.recv()
            assert reply["op"] == "result" and reply["value"] is True
            # kpi has no gateway capability: denied over the wire too
            channel.send({"op": "ctl.call", "id": 2, "service": "kpi",
                          "request": {"kind": "invoke-function", "gateway": "tank01",
                                      "function": "flush", "args": []}})
            reply = channel.recv()
            assert reply["op"] == "error"
            assert reply["code"] == "PermissionDenied"
            # reads under the kpi grant work
            channel.send({"op": "ctl.call", "id": 3, "service": "kpi",
                          "request": {"kind": "read-model-property", "model": "tank",
                                      "element": "main", "property": "capacity"}})
            reply = channel.recv()
            assert reply["op"] == "result" and reply["value"] == 10.0
        finally:
            channel.close()

    @pytest.mark.parametrize("msg", [
        {"op": "ctl.history", "selector": {"tick_from": [1]}},
        {"op": "ctl.history", "selector": {"tick_from": "1"}},
        {"op": "ctl.history", "selector": ["x"]},
        {"op": "ctl.history", "limit": 0},
        {"op": "ctl.history", "limit": True},
        {"op": "ctl.history", "after_id": "3"},
        {"op": "ctl.history", "after_id": -1},
        {"op": "ctl.invoke", "gateway": ["tank01"], "function": "flush", "args": []},
        {"op": "ctl.invoke", "gateway": "tank01", "function": "flush", "args": 5},
        {"op": "ctl.call", "service": ["kpi"],
         "request": {"kind": "read-model-property", "model": "tank", "element": "main",
                     "property": "capacity"}},
        {"op": "ctl.call", "service": "kpi", "request": ["x"]},
        {"op": [1]},
        {},
    ], ids=["tick-list", "tick-text", "selector-list", "limit-zero", "limit-bool",
            "after-id-text", "after-id-negative", "invoke-gateway-list",
            "invoke-args-int", "call-service-list", "call-request-list", "op-list", "no-op"])
    def test_malformed_request_gets_a_protocol_error(self, running_twin, msg):
        from twinrt.wire import connect_channel

        _, endpoint = running_twin
        channel = connect_channel(endpoint)
        try:
            reply = channel.request(dict(msg, id=1), timeout=5)
            assert (reply["op"], reply["code"]) == ("error", "ProtocolError")
            # the connection survives and answers the next request
            status = channel.request({"op": "ctl.status", "id": 2}, timeout=5)
            assert status["op"] == "status" and status["twin"] == "demo-tank"
        finally:
            channel.close()


class TestControlBetweenTicks:
    def test_control_clients_add_no_thread_and_the_runtime_has_no_lock(self, tmp_path):
        import ast
        from pathlib import Path

        import twinrt
        from twinrt.wire import connect_channel

        before = set(threading.enumerate())
        # the demo hosts its tank in process
        runtime = TwinRuntime(config_mod.load(DEMO_CONFIG), journal_path=tmp_path / "j.ndjson")
        endpoint = runtime.start_control("tcp://127.0.0.1:0")
        channels = [connect_channel(endpoint) for _ in range(3)]
        try:
            for i, channel in enumerate(channels):
                channel.send({"op": "ctl.status", "id": i})
            runtime.serve_control()
            assert [channel.recv()["id"] for channel in channels] == [0, 1, 2]
            assert set(threading.enumerate()) - before == set()
        finally:
            for channel in channels:
                channel.close()
            runtime.close()
        assert not hasattr(runtime, "lock") and not hasattr(runtime.data, "_lock")
        # no module of the package imports or names a thread or a lock
        def names(node) -> set:
            if isinstance(node, ast.Import):
                return {alias.name for alias in node.names}
            if isinstance(node, ast.ImportFrom):
                return {node.module, *(alias.name for alias in node.names)}
            if isinstance(node, ast.Name):
                return {node.id}
            return {node.attr} if isinstance(node, ast.Attribute) else set()

        sources = sorted(Path(twinrt.__file__).parent.glob("*.py"))
        assert len(sources) > 10
        for source in sources:
            for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
                assert not {"threading", "_thread", "Thread", "Lock", "RLock"} & names(node), (
                    source.name, ast.unparse(node))

    def test_a_client_that_does_not_read_its_reply_does_not_hold_the_loop(self):
        import socket

        from twinrt.data import HISTORICAL, last_update, origin_operator, timeliness
        from twinrt.wire import connect_channel

        runtime = TwinRuntime(config_mod.load(DEMO_CONFIG))
        props = [origin_operator(), timeliness(HISTORICAL), last_update(0)]
        for i in range(10_000):  # a reply of about 12 MB
            runtime.data.ingest(f"{i:05d}" + "x" * 1000, props)
        endpoint = runtime.start_control("tcp://127.0.0.1:0")
        silent, other = connect_channel(endpoint), connect_channel(endpoint)
        silent._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        try:
            silent.send({"op": "ctl.history", "id": 1})  # its reply is never read
            worker = threading.Thread(target=runtime.serve_control, daemon=True)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive(), "serve_control blocked on a client that does not read"
            other.send({"op": "ctl.status", "id": 2})
            runtime.serve_control()
            assert other.recv(time.monotonic() + 5)["id"] == 2
        finally:
            silent.close()
            other.close()
            runtime.close()

    def test_a_status_sent_mid_scenario_is_answered_after_the_next_tick(self, tmp_path):
        from twinrt.wire import connect_channel

        runtime = TwinRuntime(config_mod.load(DEMO_CONFIG), journal_path=tmp_path / "j.ndjson")
        endpoint = runtime.start_control("tcp://127.0.0.1:0")
        channel = connect_channel(endpoint)
        runner = ScenarioRunner(runtime)
        try:
            runner.run(scenario_mod.loads("- tick: 2\n"))
            channel.send({"op": "ctl.status", "id": 1})
            with pytest.raises(TimeoutError):  # nothing serves the socket during a step
                channel.recv(time.monotonic() + 0.2)
            runner.run(scenario_mod.loads("- tick\n"))
            assert channel.recv(time.monotonic() + 5) == {
                "op": "status", "id": 1, "twin": "demo-tank", "tick": 3}
        finally:
            channel.close()
            runtime.close()

    def test_timer_mode_answers_control_requests_while_it_waits(self):
        from twinrt.wire import connect_channel

        proc = subprocess.Popen(
            [sys.executable, "-m", "twinrt.cli", "run", "--config", str(DEMO_CONFIG),
             "--timer", "10", "--max-ticks", "200", "--control", "tcp://127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            endpoint = proc.stdout.readline().split()[-1]
            channel = connect_channel(endpoint)
            try:
                ticks = [channel.request({"op": "ctl.status", "id": i}, timeout=5)["tick"]
                         for i in range(3)]
            finally:
                channel.close()
            assert ticks == sorted(ticks) and 0 <= ticks[0] and ticks[-1] <= 200
        finally:
            out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err


def probe_config():
    """The demo with an external service ``probe`` that may read records
    and the tank's gateway and ingest records of its own."""
    doc = yaml.safe_load(DEMO_CONFIG.read_text())
    doc["services"].append(
        {"id": "probe", "grant": ["read-data", "ingest-data", "read-gateway:tank01"]})
    return config_mod.loads(yaml.safe_dump(doc))


def test_every_record_the_runtime_writes_keeps_the_runs_in_tick_order(tmp_path):
    """Syncs, the kpi's ingests and a service's ingest between ticks all keep
    the store's runs in tick order, so a tick window bisects to its runs,
    live and in the store a reload of the journal builds."""
    journal = tmp_path / "journal.ndjson"
    twin = TwinRuntime(probe_config(), journal_path=journal)
    try:
        steps = scenario_mod.load(DEMO_SCENARIO).steps
        runner = ScenarioRunner(twin)
        runner.run(scenario_mod.ScenarioScript(steps[:len(steps) // 2]))
        reply = control(twin, {"op": "ctl.call", "service": "probe",
                               "request": {"kind": "ingest-processed", "value": 1.0}})[0]
        assert reply["op"] == "result", reply
        runner.run(scenario_mod.ScenarioScript(steps[len(steps) // 2:]))
        assert twin.data.query(Selector(origin_source="service", origin_id="probe"))
    finally:
        twin.close()
    for store in (twin.data, DataManager.reload(journal)):
        ticks = store._run_ticks
        assert store._ticks_sorted and None not in ticks and ticks == sorted(ticks)
        assert store.count() == twin.data.count() == 18


class TestServiceCallReplies:
    @pytest.fixture()
    def twin(self):
        runtime = TwinRuntime(probe_config())
        yield runtime
        runtime.close()

    @staticmethod
    def call(runtime, **request) -> dict:
        return control(runtime, {"op": "ctl.call", "service": "probe", "request": request})[0]

    @pytest.mark.parametrize("link", [[], 0, "", False], ids=["list", "zero", "text", "false"])
    def test_a_falsy_link_is_refused_and_ingests_nothing(self, twin, link):
        reply = self.call(twin, kind="ingest-processed", value=1.0, link=link)
        assert (reply["op"], reply["code"]) == ("error", "SchemaViolation"), reply
        assert twin.data.count() == 0

    @pytest.mark.parametrize("link", [{"link": None}, {}], ids=["null", "absent"])
    def test_no_link_ingests_an_unlinked_record(self, twin, link):
        reply = self.call(twin, kind="ingest-processed", value=1.0, **link)
        assert reply["op"] == "result", reply
        [record] = twin.data.query()
        assert (record.value, record.model_link) == (1.0, None)
        assert record.prop(PropertyType.ORIGIN) == {"source": "service", "id": "probe"}

    def test_read_gateway_property_replies_with_the_sample(self, twin):
        twin.advance(3)
        reply = self.call(twin, kind="read-gateway-property", gateway="tank01", property="level")
        sample = twin.engine.gateway("tank01").read_property("level")  # the next read
        assert reply == {"op": "result", "id": 1, "value": {
            "value": sample.value, "ts": sample.asset_timestamp, "seq": sample.sequence_no - 1}}
        assert sample.value > 0

    def test_query_data_replies_with_the_records(self, twin):
        twin.advance(5)
        reply = self.call(twin, kind="query-data", selector={"origin": "actual-system",
                                                             "tick_from": 2, "tick_to": 4})
        records = twin.data.query(Selector(origin_source="actual-system", tick_from=2, tick_to=4))
        assert len(records) == 3
        assert reply == {"op": "result", "id": 1, "value": [r.to_dict() for r in records]}


class TestListenFailures:
    @pytest.fixture()
    def busy(self):
        import socket

        sock = socket.create_server(("127.0.0.1", 0))
        yield f"tcp://127.0.0.1:{sock.getsockname()[1]}"
        sock.close()

    def test_run_with_a_busy_control_address_exits_1(self, capsys, busy, tmp_path):
        script = tmp_path / "s.yaml"
        script.write_text("- tick\n")
        assert main(["run", "--config", str(DEMO_CONFIG), "--script", str(script),
                     "--control", busy]) == 1
        assert f"error: cannot listen on {busy}" in capsys.readouterr().err

    def test_a_simulated_gateway_on_a_busy_endpoint_fails_the_runtime(self, busy, tmp_path):
        from twinrt.errors import ConnectFailed

        config = tmp_path / "busy.yaml"
        config.write_text(DEMO_CONFIG.read_text().replace(
            "endpoint: tcp://127.0.0.1:0", f"endpoint: {busy}"))
        with pytest.raises(ConnectFailed, match=f"cannot listen on {busy}"):
            TwinRuntime(config_mod.load(config), journal_path=tmp_path / "j.ndjson")


class TestExternalAsset:
    def test_runtime_drives_a_separate_asset_process(self, tmp_path):
        proc = subprocess.Popen(
            [sys.executable, "-m", "twinrt.asset", "--listen", "tcp://127.0.0.1:0",
             "--model", "tank", "--step-ms", "100", "--param", "valve=1.0"],
            stdout=subprocess.PIPE, text=True)
        try:
            endpoint = proc.stdout.readline().split(" ", 1)[1].strip()
            # external asset: point the gateway at the process, drop simulate
            doc = yaml.safe_load(DEMO_CONFIG.read_text())
            gateway = doc["gateways"][0]
            gateway["endpoint"] = endpoint
            del gateway["simulate"]
            config_path = tmp_path / "external.yaml"
            config_path.write_text(yaml.safe_dump(doc))
            script = tmp_path / "s.yaml"
            script.write_text("""
steps:
  - tick: 3
  - expect-model: {model: tank, element: main, property: level,
                   value: 0.30000000000000004}
  - asset-set: {gateway: tank01, property: level, value: 5.0}
  - tick: 1
  - expect-model: {model: tank, element: main, property: level, value: 5.1}
""")
            code = main(["scenario", str(script), "--config", str(config_path),
                         "--journal", str(tmp_path / "j.ndjson")])
            assert code == 0
        finally:
            proc.terminate()
            proc.communicate(timeout=5)


class _FakeClock:
    """Stands in for the ``time`` module in the CLI: sleeping advances ``now``."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


class TestRunTimerMode:
    @pytest.mark.parametrize("flags,flag", [
        (["--timer", "-50"], "--timer"),
        (["--timer", "0"], "--timer"),
        (["--timer", "5", "--max-ticks", "-2"], "--max-ticks"),
        (["--timer", "5", "--max-ticks", "0"], "--max-ticks"),
    ])
    def test_a_flag_below_one_is_a_usage_error(self, capsys, flags, flag):
        assert main(["run", "--config", str(DEMO_CONFIG), *flags]) == 2
        captured = capsys.readouterr()
        assert f"{flag} must be a positive integer" in captured.err
        assert "running" not in captured.out

    def test_timer_mode_with_max_ticks(self, capsys, tmp_path):
        code = main(["run", "--config", str(DEMO_CONFIG), "--timer", "5",
                     "--max-ticks", "3", "--journal", str(tmp_path / "j.ndjson")])
        assert code == 0
        journal = (tmp_path / "j.ndjson").read_text().splitlines()
        assert len(journal) >= 3  # one pull per tick at least

    def test_a_second_run_on_the_same_outputs_is_refused_and_leaves_them_whole(
            self, capsys, tmp_path):
        journal, decisions = tmp_path / "j.ndjson", tmp_path / "d.log"

        def run(decision_log):
            return main(["run", "--config", str(DEMO_CONFIG), "--journal", str(journal),
                         "--decisions", str(decision_log), "--timer", "1",
                         "--max-ticks", "3"])

        assert run(decisions) == 0
        written = journal.read_bytes(), decisions.read_bytes()
        assert all(written)
        capsys.readouterr()
        assert run(decisions) == 1
        assert f"error: decision log {decisions} is not empty" in capsys.readouterr().err
        # a new decision log does not let the run append to the old journal
        fresh = tmp_path / "d2.log"
        assert run(fresh) == 1
        assert f"error: journal {journal} is not empty" in capsys.readouterr().err
        assert (journal.read_bytes(), decisions.read_bytes()) == written
        assert fresh.read_bytes() == b""
        assert main(["history", "--journal", str(journal)]) == 0

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full, the device every write to fails")
    @pytest.mark.parametrize("flag,what", [("--decisions", "decision log"),
                                           ("--journal", "journal")])
    def test_an_output_that_cannot_be_written_ends_the_run_with_exit_1(self, capsys,
                                                                     flag, what):
        code = main(["run", "--config", str(DEMO_CONFIG), "--timer", "1", "--max-ticks", "3",
                     flag, "/dev/full"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: cannot append to {what} /dev/full: [Errno 28] No space left on device\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full, the device every write to fails")
    def test_a_journal_a_service_cannot_write_ends_the_run_with_exit_1(self, capsys,
                                                                      tmp_path):
        # no mapping: the KPI monitor's record is the first journal write
        text = DEMO_CONFIG.read_text()
        start, end = text.index("mappings:"), text.index("services:")
        config = tmp_path / "twin.yaml"
        config.write_text(text[:start] + "mappings: []\n\n" + text[end:])
        code = main(["run", "--config", str(config), "--timer", "1", "--max-ticks", "8",
                     "--journal", "/dev/full"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: cannot append to journal /dev/full: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize("journal_in", ["flag", "config"])
    def test_one_file_as_journal_and_decision_log_is_a_usage_error(
            self, capsys, tmp_path, monkeypatch, journal_in):
        both = tmp_path / "both.log"
        config, flags = DEMO_CONFIG, ["--journal", str(both)]
        if journal_in == "config":
            config, flags = tmp_path / "twin.yaml", []
            config.write_text(DEMO_CONFIG.read_text().replace("journal: null",
                                                              f"journal: {both}"))
        monkeypatch.chdir(tmp_path)  # the decision log is named relative to the journal
        code = main(["run", "--config", str(config), *flags, "--decisions", "both.log",
                     "--timer", "1", "--max-ticks", "3"])
        assert code == 2
        captured = capsys.readouterr()
        assert str(both) in captured.err and "running" not in captured.out
        assert not both.exists()

    @pytest.mark.parametrize("tick_s,sleeps", [
        (0.03125, [0.125, 0.09375, 0.09375, 0.09375]),  # each tick sleeps off the rest
        (0.25, [0.125, 0.0, 0.0, 0.0]),  # overrunning ticks never sleep a negative time
    ])
    def test_timer_ticks_on_a_fixed_schedule(self, monkeypatch, capsys, tick_s, sleeps):
        clock = _FakeClock()
        real_tick = TwinRuntime.tick

        def timed_tick(runtime):
            decisions = real_tick(runtime)
            clock.now += tick_s
            return decisions

        monkeypatch.setattr(cli_mod, "time", clock)
        monkeypatch.setattr(TwinRuntime, "tick", timed_tick)
        assert main(["run", "--config", str(DEMO_CONFIG), "--timer", "125",
                     "--max-ticks", "4"]) == 0
        assert clock.sleeps == sleeps

    def test_ticks_after_idling_past_the_connect_timeout_are_not_suspended(self, tmp_path):
        runtime = TwinRuntime(config_mod.load(DEMO_CONFIG), journal_path=tmp_path / "j.ndjson",
                              connect_timeout=0.2)
        try:
            time.sleep(0.5)
            runtime.advance(2)
            reasons = [d.reason for d in runtime.engine.decisions]
            assert reasons and SyncReason.SUSPENDED not in reasons
        finally:
            runtime.close()

    def test_mapping_free_config_runs_as_a_plain_digital_model(self, capsys, tmp_path):
        config = tmp_path / "bare.yaml"
        config.write_text("""
twin: bare
languages: [{id: lang, kinds: {Node: {x: real}}}]
managers: [{id: m, models: [mdl]}]
models:
  - id: mdl
    language: lang
    elements: [{id: e, kind: Node, properties: {x: 1.5}}]
""")
        assert main(["classify", "--config", str(config)]) == 0
        assert "digital-model" in capsys.readouterr().out
        assert main(["audit", "--config", str(config)]) == 0
        capsys.readouterr()
        script = tmp_path / "s.yaml"
        script.write_text("""
steps:
  - tick: 3
  - expect-model: {model: mdl, element: e, property: x, value: 1.5}
  - expect-record-count: {selector: {}, count: 0}
""")
        assert main(["scenario", str(script), "--config", str(config)]) == 0
