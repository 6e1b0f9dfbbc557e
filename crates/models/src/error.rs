use std::fmt;

/// Errors produced by the model zoo.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// An underlying interchange-format operation failed.
    Ir(se_ir::IrError),
    /// An underlying tensor operation failed.
    Tensor(se_tensor::TensorError),
    /// An underlying NN-stack operation failed.
    Nn(se_nn::NnError),
    /// An underlying compression operation failed.
    Core(se_core::CoreError),
    /// A trace-artifact file could not be read or written.
    Io {
        /// The offending path.
        path: String,
        /// The rendered `std::io::Error` (kept as a string so the error
        /// type stays `Clone + PartialEq`).
        reason: String,
    },
    /// An artifact file failed to decode.
    Artifact {
        /// The offending path.
        path: String,
        /// The decode failure.
        source: Box<ModelError>,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Ir(e) => write!(f, "format error: {e}"),
            ModelError::Tensor(e) => write!(f, "tensor error: {e}"),
            ModelError::Nn(e) => write!(f, "nn error: {e}"),
            ModelError::Core(e) => write!(f, "compression error: {e}"),
            ModelError::Io { path, reason } => write!(f, "io error on {path}: {reason}"),
            ModelError::Artifact { path, source } => write!(f, "artifact {path}: {source}"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Ir(e) => Some(e),
            ModelError::Tensor(e) => Some(e),
            ModelError::Nn(e) => Some(e),
            ModelError::Core(e) => Some(e),
            ModelError::Io { .. } => None,
            ModelError::Artifact { source, .. } => Some(source.as_ref()),
        }
    }
}

impl From<se_ir::IrError> for ModelError {
    fn from(e: se_ir::IrError) -> Self {
        ModelError::Ir(e)
    }
}

impl From<se_tensor::TensorError> for ModelError {
    fn from(e: se_tensor::TensorError) -> Self {
        ModelError::Tensor(e)
    }
}

impl From<se_nn::NnError> for ModelError {
    fn from(e: se_nn::NnError) -> Self {
        ModelError::Nn(e)
    }
}

impl From<se_core::CoreError> for ModelError {
    fn from(e: se_core::CoreError) -> Self {
        ModelError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = ModelError::Io { path: "a.setrace".into(), reason: "denied".into() };
        assert!(e.to_string().contains("a.setrace"));
        assert!(e.source().is_none());
        let e = ModelError::Tensor(se_tensor::TensorError::Singular);
        assert!(e.source().is_some());
    }
}
