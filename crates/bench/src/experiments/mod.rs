//! One module per paper figure.

pub mod fig1;
pub mod fig3;
pub mod fig4a;
pub mod fig4b;
pub mod fig5;
pub mod vbo;
