//! # xmlcfg — minimal XML for SENSEI run-time configuration
//!
//! SENSEI selects and configures its analysis back-ends at run time from
//! an XML file (the paper's Appendix A ships the XML configs used in the
//! evaluation). This crate implements exactly the XML subset those
//! configurations use — elements, attributes, text, comments, an optional
//! declaration, and the five predefined entities — with no external
//! dependencies.
//!
//! ```
//! let doc = xmlcfg::parse(r#"
//!     <sensei>
//!       <analysis type="data_binning" enabled="1" device="2">
//!         <axes>x,y</axes>
//!       </analysis>
//!     </sensei>"#).unwrap();
//! let analysis = doc.find_child("analysis").unwrap();
//! assert_eq!(analysis.attr("type"), Some("data_binning"));
//! assert_eq!(analysis.parse_attr::<i32>("device").unwrap(), Some(2));
//! assert_eq!(analysis.find_child("axes").unwrap().text(), "x,y");
//! ```

#![deny(unsafe_code)]

mod dom;
mod error;
mod parser;
mod writer;

pub use dom::{Element, Node};
pub use error::{Error, Result};
pub use parser::parse;
pub use writer::write;
