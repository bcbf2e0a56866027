//! A minimal JSON reader for the tests: the container has no `serde_json`,
//! and the tests must read `BENCHMARK.json`, the result line and the span
//! file exactly as the driver would.

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(text: &str) -> Json {
        let mut parser = Parser { bytes: text.as_bytes(), at: 0 };
        let value = parser.value();
        parser.space();
        assert_eq!(parser.at, text.len(), "trailing characters after the JSON value");
        value
    }

    pub fn get(&self, key: &str) -> &Json {
        match self {
            Json::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key {key:?}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("{other:?} is not an object"),
        }
    }

    pub fn items(&self) -> &[Json] {
        match self {
            Json::Array(items) => items,
            other => panic!("{other:?} is not an array"),
        }
    }

    pub fn str(&self) -> &str {
        match self {
            Json::String(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    pub fn number(&self) -> f64 {
        match self {
            Json::Number(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn space(&mut self) {
        while self.bytes.get(self.at).is_some_and(|b| b.is_ascii_whitespace()) {
            self.at += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.bytes[self.at..].starts_with(literal.as_bytes());
        if hit {
            self.at += literal.len();
        }
        hit
    }

    fn value(&mut self) -> Json {
        self.space();
        if self.eat("null") {
            Json::Null
        } else if self.eat("true") {
            Json::Bool(true)
        } else if self.eat("false") {
            Json::Bool(false)
        } else if self.eat("\"") {
            Json::String(self.string())
        } else if self.eat("[") {
            let mut items = Vec::new();
            self.space();
            if !self.eat("]") {
                loop {
                    items.push(self.value());
                    self.space();
                    if self.eat("]") {
                        break;
                    }
                    assert!(self.eat(","), "expected , or ] at byte {}", self.at);
                }
            }
            Json::Array(items)
        } else if self.eat("{") {
            let mut fields = Vec::new();
            self.space();
            if !self.eat("}") {
                loop {
                    self.space();
                    assert!(self.eat("\""), "expected a key at byte {}", self.at);
                    let key = self.string();
                    self.space();
                    assert!(self.eat(":"), "expected : at byte {}", self.at);
                    fields.push((key, self.value()));
                    self.space();
                    if self.eat("}") {
                        break;
                    }
                    assert!(self.eat(","), "expected , or }} at byte {}", self.at);
                }
            }
            Json::Object(fields)
        } else {
            let start = self.at;
            while self.bytes.get(self.at).is_some_and(|b| b"+-.eE0123456789".contains(b)) {
                self.at += 1;
            }
            let text = std::str::from_utf8(&self.bytes[start..self.at]).unwrap();
            Json::Number(text.parse().unwrap_or_else(|_| panic!("bad number {text:?} at {start}")))
        }
    }

    /// The rest of a string whose opening quote is consumed. The files read
    /// here use no escapes beyond `\"` and `\\`.
    fn string(&mut self) -> String {
        let mut out = Vec::new();
        loop {
            match self.bytes[self.at] {
                b'"' => break,
                b'\\' => {
                    out.push(self.bytes[self.at + 1]);
                    self.at += 2;
                }
                byte => {
                    out.push(byte);
                    self.at += 1;
                }
            }
        }
        self.at += 1;
        String::from_utf8(out).unwrap()
    }
}
