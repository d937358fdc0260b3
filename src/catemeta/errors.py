"""Exception types shared across the package."""


class CatemetaError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(CatemetaError):
    """Covariate dimensions of two objects do not agree."""


class SingularDesignError(CatemetaError):
    """A study's regression design matrix is rank deficient."""

    def __init__(self, column_name: str, study_id: int):
        self.column_name = column_name
        self.study_id = study_id
        super().__init__(f"study {study_id}: design matrix is singular: column "
                         f"'{column_name}' is linearly dependent on earlier columns")

    def __reduce__(self):  # a worker process's error pickles with both fields
        return type(self), (self.column_name, self.study_id)


class InsufficientDataError(CatemetaError):
    """Too few rows to fit the requested model."""


class InsufficientStudiesError(CatemetaError):
    """Too few studies for the requested pooling or interval."""


class ConfigurationError(CatemetaError):
    """Invalid parameter combination."""


class EstimationError(CatemetaError):
    """An estimate could not be produced from the given data."""


class InputFormatError(CatemetaError):
    """A CSV or config file violates its schema."""

    def __init__(self, message: str, path: str = "", line: int | None = None):
        self.path = path
        self.line = line
        loc = path
        if line is not None:
            loc = f"{path}:{line}" if path else f"line {line}"
        super().__init__(f"{loc}: {message}" if loc else message)
