import numpy as np

from tabctx import dataset as ds


def make_dataset(num: dict | None = None, cat: dict | None = None,
                 label=None, task: str = ds.TASK_CLASSIFICATION,
                 label_kind: str | None = None) -> ds.Dataset:
    """Build a Dataset from plain column dicts; label defaults by task."""
    schema, columns = [], {}
    for name, vals in (num or {}).items():
        schema.append(ds.ColumnSchema(name, ds.KIND_NUMERICAL))
        columns[name] = np.asarray(vals, dtype=np.float64)
    for name, vals in (cat or {}).items():
        schema.append(ds.ColumnSchema(name, ds.KIND_CATEGORICAL))
        columns[name] = np.asarray([str(v) for v in vals], dtype=object)
    kind = label_kind or (ds.KIND_CATEGORICAL if task == ds.TASK_CLASSIFICATION else ds.KIND_NUMERICAL)
    schema.append(ds.ColumnSchema("target", kind, ds.ROLE_LABEL))
    if kind == ds.KIND_CATEGORICAL:
        columns["target"] = np.asarray([str(v) for v in label], dtype=object)
    else:
        columns["target"] = np.asarray(label, dtype=np.float64)
    return ds.Dataset(schema, columns, task)
