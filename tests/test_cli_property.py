"""Property: for any argv drawn from a mixed good/bad alphabet, the CLI exits
with 0, 1 or 2 and never prints a traceback.

Runs stay cheap: horizons of at most 0.5 at h >= 0.005, at most three sweep
lanes, one worker.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fjerk import cli

BAD = ["x", "", "nan", "inf", "1e400", "-1", "0", "1/0", "1,2", "1,1e-400,1"]

GOOD = {
    "--a": ["0.129", "1"],
    "--b": ["7", "2", "1e30"],
    "--alpha": ["0.91", "1"],
    "--alphas": ["1,99/100,1", "1,1,1", "3/5,3/5,2/3"],
    "--h": ["0.005", "0.05"],
    "--t-end": ["0.2", "0.5"],
    "--x0": ["0,0,0", "0.1,0,0"],
    "--transient": ["0", "0.3"],
    "--renorm-every": ["10", "200"],
    "--eps": ["5", "0.5"],
    "--branch": ["plus", "minus"],
    "--eps-min": ["4"],
    "--eps-max": ["5"],
    "--n": ["1", "3"],
    "--plane": ["xy", "xz"],
}

COMMON = ["--a", "--b", "--alpha", "--alphas", "--h", "--t-end", "--x0", "--transient",
          "--renorm-every"]
COMMANDS = {
    "hopf": COMMON + ["--branch"],
    "simulate": COMMON + ["--eps"],
    "sweep": COMMON + ["--eps-min", "--eps-max", "--n"],
    "lyapunov": COMMON + ["--eps"],
    "portrait": COMMON + ["--eps", "--plane"],
}
# a runnable invocation of each command, before the drawn options change it
BASE = {"--a": "0.129", "--b": "7", "--alpha": "0.91", "--t-end": "0.5", "--eps": "5",
        "--eps-min": "4", "--eps-max": "5", "--n": "2"}


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    options = COMMANDS[command]
    chosen = {k: v for k, v in BASE.items() if k in options}
    for option in draw(st.lists(st.sampled_from(options), max_size=4)):
        if option in ("--alpha", "--alphas"):  # the two exclude each other
            chosen.pop("--alpha", None)
            chosen.pop("--alphas", None)
        chosen[option] = draw(st.sampled_from(GOOD[option] + BAD))
    flags = []
    if command == "sweep":
        flags = [f for f in ("--lyapunov", "--svg") if draw(st.booleans())]
    in_config = draw(st.lists(st.sampled_from(sorted(chosen)), unique=True))
    return command, chosen, flags, in_config


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(invocations())
def test_cli_exit_code_and_no_traceback(tmp_path, monkeypatch, capsys, invocation):
    monkeypatch.setenv("FJERK_THREADS", "1")
    command, chosen, flags, in_config = invocation
    config = tmp_path / "run.cfg"
    config.write_text("".join(f"{k[2:]} = {chosen[k]}\n" for k in in_config))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out"), *flags]
    for option, value in chosen.items():
        if option not in in_config:
            argv.append(f"{option}={value}")
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc in (0, 1, 2), (argv, rc, err)
    assert "Traceback" not in err, (argv, err)
