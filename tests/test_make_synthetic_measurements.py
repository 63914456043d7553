import importlib.util
import types
from pathlib import Path

import numpy as np
import reference_ingest as ref

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "make_synthetic_measurements.py"
_SPEC = importlib.util.spec_from_file_location("make_synthetic_measurements", _PATH)
synthetic = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(synthetic)


def test_streamed_log_matches_the_list_form(tmp_path):
    # the generator draws the reads' noise in the order the list form drew
    # it, so the streamed file is the list form's file byte for byte
    field, target, records = synthetic.synthetic_log(seed=5, repeats=7, noise_db=0.8)
    assert isinstance(records, types.GeneratorType)
    ref.write_measurement_file(tmp_path / "list.csv", field, list(records))
    streamed_target = synthetic.build(tmp_path / "log.csv", seed=5, repeats=7, noise_db=0.8)
    np.testing.assert_array_equal(streamed_target, target)
    assert (tmp_path / "log.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()
    # roster header and 5 sensors, separator and record header, 20 links' reads
    assert len((tmp_path / "log.csv").read_text().splitlines()) == 6 + 2 + 20 * 7
