"""Byte-level pins of the files and payloads the package writes.

Other tests read these back or look up their keys; these compare the exact
text, so a change of encoder, key order, indentation or float formatting
shows here.
"""

import numpy as np

from slocceq.cli import EXIT_FAIL, main, write_certificate_file
from slocceq.states import PureState, make_state, write_state_file


def test_state_file_text(tmp_path):
    # GHZ class: |0000> and |1111> only, one weight with 17 significant digits, one -0.0.
    amps = make_state("ghz4").amps.copy()
    amps[0b1111] = complex(0.1 + 0.2, -0.0)
    path = tmp_path / "ghz4.state"
    write_state_file(path, PureState((2, 2, 2, 2), amps))
    assert path.read_text(encoding="utf-8") == (
        '{"dims": [2, 2, 2, 2], "amps": [[0.7071067811865476, 0.0], '
        "[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], "
        "[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], "
        "[0.30000000000000004, -0.0]]}\n"
    )


CERTIFICATE_TEXT = """\
{
  "version": "slocceq.certificate/1",
  "cut": "12-34",
  "scalar": [
    0.5,
    -0.25
  ],
  "residual": 3.1e-16,
  "operators": [
    [
      [
        [
          1.0,
          0.0
        ],
        [
          0.0,
          0.0
        ]
      ],
      [
        [
          0.0,
          0.0
        ],
        [
          1.0,
          0.0
        ]
      ]
    ],
    [
      [
        [
          0.0,
          0.0
        ],
        [
          0.0,
          1.0
        ]
      ],
      [
        [
          2.0,
          0.0
        ],
        [
          -0.5,
          0.0
        ]
      ]
    ]
  ],
  "diagnostics": {
    "planted": true,
    "seed": 3,
    "condition_cap": 100.0,
    "per_cut": {
      "12-34": {
        "stage": "spectral",
        "ranks": [
          4,
          2
        ]
      }
    }
  }
}
"""


def test_certificate_file_text(tmp_path):
    # numpy scalars, nested in the diagnostics too, are written as their Python values.
    ops = (np.eye(2), np.array([[0, 1j], [2, -0.5]]))
    diagnostics = {
        "planted": np.bool_(True),
        "seed": np.int64(3),
        "condition_cap": 100.0,
        "per_cut": {"12-34": {"stage": "spectral", "ranks": (4, np.int64(2))}},
    }
    path = tmp_path / "c.cert"
    write_certificate_file(path, ops, np.complex128(0.5 - 0.25j), "12-34", np.float64(3.1e-16), diagnostics)
    assert path.read_text(encoding="utf-8") == CERTIFICATE_TEXT


CHECK_PAYLOAD_TEXT = """\
{
  "command": "check",
  "verdict": "INEQUIVALENT",
  "cut": "12-34",
  "tolerance": 1e-08,
  "certificate": null,
  "proof": {
    "invariant": "tripartite-class",
    "location": "factor u at cut 12-34",
    "value_a": "GHZ_CLASS",
    "value_b": "W_CLASS",
    "description": "triple-state factor u at cut 12-34 classifies GHZ_CLASS vs W_CLASS"
  },
  "diagnostics": {
    "cut": "12-34",
    "rtol": 1e-09,
    "verify_tol": 1e-08,
    "stage": "invariant_screen"
  }
}
"""


def test_check_json_payload_text(tmp_path, capsys):
    paths = [str(tmp_path / f"{name}.state") for name in ("ghz4", "w4")]
    for path, name in zip(paths, ("ghz4", "w4")):
        write_state_file(path, make_state(name))
    assert main(["check", *paths, "--json"]) == EXIT_FAIL
    assert capsys.readouterr().out == CHECK_PAYLOAD_TEXT
