//! Request execution: one parsed request against the resolver. The
//! `weber-net` reactor ([`crate::server`]) calls [`process_line`] on its
//! workers; embedders and tests can call it directly.

use crate::protocol::{self, Request};
use crate::resolver::StreamResolver;

/// Process one parsed request against the resolver.
pub fn process_request(resolver: &StreamResolver, request: &Request) -> String {
    match request {
        Request::Seed { name, docs } => match resolver.seed(name, docs) {
            Ok(summary) => protocol::ok_seed(name, &summary),
            Err(e) => protocol::err_response(&e),
        },
        Request::Ingest { name, text, url } => match resolver.ingest(name, text, url.as_deref()) {
            Ok(assignment) => protocol::ok_ingest(name, &assignment),
            Err(e) => protocol::err_response(&e),
        },
        Request::Resolve { name } => match resolver.resolve_name(name) {
            Ok(summary) => protocol::ok_resolve(&summary),
            Err(e) => protocol::err_response(&e),
        },
        Request::Entities { name: Some(name) } => match resolver.entities(name) {
            Ok(table) => protocol::ok_entities(&table),
            Err(e) => protocol::err_response(&e),
        },
        Request::Entities { name: None } => match resolver.entities_all() {
            Ok(tables) => protocol::ok_entities_all(&tables),
            Err(e) => protocol::err_response(&e),
        },
        Request::SameAs {
            name,
            a,
            b,
            retract,
        } => match resolver.same_as(name, *a, *b, *retract) {
            Ok(table) => {
                let active = table
                    .links
                    .iter()
                    .any(|l| (l.a == *a && l.b == *b) || (l.a == *b && l.b == *a));
                protocol::ok_same_as(&table, *a, *b, *retract, active)
            }
            Err(e) => protocol::err_response(&e),
        },
        Request::Constraint { name, action } => match resolver.constrain(name, action) {
            Ok((added, table)) => protocol::ok_constraint(&table, added),
            Err(e) => protocol::err_response(&e),
        },
        Request::Snapshot => protocol::ok_snapshot(&resolver.snapshot()),
        Request::Metrics => protocol::ok_metrics(&resolver.metrics().merged_snapshot()),
        Request::Health => protocol::ok_health(&resolver.health()),
        Request::Persist => match resolver.persist_all() {
            Ok(written) => protocol::ok_count("persist", written),
            Err(e) => protocol::err_response(&e),
        },
        Request::Restore => match resolver.restore_all() {
            Ok(restored) => protocol::ok_count("restore", restored),
            Err(e) => protocol::err_response(&e),
        },
        Request::Flush => protocol::ok_plain("flush"),
        Request::Shutdown => protocol::ok_plain("shutdown"),
    }
}

/// Parse and process one request line synchronously.
pub fn process_line(resolver: &StreamResolver, line: &str) -> String {
    match protocol::parse_request(line) {
        Ok(request) => process_request(resolver, &request),
        Err(e) => protocol::err_response(&e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StreamConfig;
    use std::sync::Arc;
    use weber_extract::gazetteer::Gazetteer;

    fn resolver() -> Arc<StreamResolver> {
        let mut g = Gazetteer::new();
        g.add_phrases(
            weber_extract::gazetteer::EntityKind::Concept,
            ["databases", "gardening"],
        );
        Arc::new(StreamResolver::new(StreamConfig::default(), &g).unwrap())
    }

    fn seed_line() -> String {
        r#"{"op":"seed","name":"cohen","docs":[
            {"text":"databases are fun and databases are important","label":0},
            {"text":"databases are hard but databases pay well","label":0},
            {"text":"gardening tips for growing roses","label":1},
            {"text":"gardening advice on pruning roses","label":1}]}"#
            .replace('\n', " ")
    }

    #[test]
    fn process_line_works_without_a_queue() {
        let r = resolver();
        let response = process_line(&r, &seed_line());
        let v = serde_json::parse_value(&response).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        let snap = process_line(&r, r#"{"op":"snapshot"}"#);
        let v = serde_json::parse_value(&snap).unwrap();
        assert_eq!(v.get("names").unwrap().as_array().unwrap().len(), 1);
    }
}
