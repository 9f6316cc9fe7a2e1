//! The LUBM-like data generator.
//!
//! Deterministically expands a number of universities into departments,
//! faculty, students, courses and publications, following the shape of
//! the original Univ-Bench generator: every entity is typed with its
//! **most specific** class (a `FullProfessor` is never redundantly
//! asserted to be a `Professor` or `Person` — those types are implicit,
//! which is the whole point of reformulation/saturation), faculty hold
//! three `…DegreeFrom` edges to random universities, one full professor
//! per department is its `Chair` (`headOf`), students `memberOf` their
//! department while faculty `worksFor` it, and so on.

use jucq_model::{Graph, Term, TermId, TripleId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::ontology::{Ontology, NS};

/// Generator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LubmConfig {
    /// Number of universities (the LUBM scale factor).
    pub universities: usize,
    /// RNG seed; same config ⇒ same graph.
    pub seed: u64,
}

impl LubmConfig {
    /// A scale of `universities` with the default seed.
    pub fn new(universities: usize) -> Self {
        LubmConfig { universities, seed: 0x10b3 }
    }
}

/// Interned vocabulary handles, resolved once.
struct V {
    rdf_type: TermId,
    university: TermId,
    department: TermId,
    research_group: TermId,
    research: TermId,
    full_prof: TermId,
    assoc_prof: TermId,
    asst_prof: TermId,
    lecturer: TermId,
    chair: TermId,
    undergrad: TermId,
    grad: TermId,
    teaching_assistant: TermId,
    research_assistant: TermId,
    journal_article: TermId,
    conference_paper: TermId,
    technical_report: TermId,
    book: TermId,
    course: TermId,
    graduate_course: TermId,
    works_for: TermId,
    head_of: TermId,
    member_of: TermId,
    undergrad_degree: TermId,
    masters_degree: TermId,
    doctoral_degree: TermId,
    advisor: TermId,
    takes_course: TermId,
    teacher_of: TermId,
    teaching_assistant_of: TermId,
    publication_author: TermId,
    sub_organization_of: TermId,
    research_project: TermId,
    name: TermId,
    email: TermId,
}

impl V {
    fn intern(graph: &mut Graph) -> V {
        let mut u = |n: &str| graph.dict_mut().encode_uri(&format!("{NS}{n}"));
        V {
            university: u("University"),
            department: u("Department"),
            research_group: u("ResearchGroup"),
            research: u("Research"),
            full_prof: u("FullProfessor"),
            assoc_prof: u("AssociateProfessor"),
            asst_prof: u("AssistantProfessor"),
            lecturer: u("Lecturer"),
            chair: u("Chair"),
            undergrad: u("UndergraduateStudent"),
            grad: u("GraduateStudent"),
            teaching_assistant: u("TeachingAssistant"),
            research_assistant: u("ResearchAssistant"),
            journal_article: u("JournalArticle"),
            conference_paper: u("ConferencePaper"),
            technical_report: u("TechnicalReport"),
            book: u("Book"),
            course: u("Course"),
            graduate_course: u("GraduateCourse"),
            works_for: u("worksFor"),
            head_of: u("headOf"),
            member_of: u("memberOf"),
            undergrad_degree: u("undergraduateDegreeFrom"),
            masters_degree: u("mastersDegreeFrom"),
            doctoral_degree: u("doctoralDegreeFrom"),
            advisor: u("advisor"),
            takes_course: u("takesCourse"),
            teacher_of: u("teacherOf"),
            teaching_assistant_of: u("teachingAssistantOf"),
            publication_author: u("publicationAuthor"),
            sub_organization_of: u("subOrganizationOf"),
            research_project: u("researchProject"),
            name: u("name"),
            email: u("emailAddress"),
            rdf_type: graph.rdf_type(),
        }
    }
}

/// The URI of university `u`.
pub fn university_uri(u: usize) -> String {
    format!("http://www.univ{u}.jucq.org")
}

/// The URI of department `d` of university `u`.
pub fn department_uri(u: usize, d: usize) -> String {
    format!("http://www.dept{d}.univ{u}.jucq.org")
}

struct Gen<'a> {
    graph: &'a mut Graph,
    v: V,
    rng: StdRng,
    universities: usize,
}

impl Gen<'_> {
    fn add(&mut self, s: TermId, p: TermId, o: TermId) {
        self.graph.insert_data_encoded(TripleId::new(s, p, o));
    }

    fn typed(&mut self, s: TermId, class: TermId) {
        let p = self.v.rdf_type;
        self.add(s, p, class);
    }

    fn entity(&mut self, uri: String) -> TermId {
        self.graph.dict_mut().encode_uri(&uri)
    }

    fn literal(&mut self, s: &str) -> TermId {
        self.graph.dict_mut().encode(&Term::literal(s))
    }

    fn random_university(&mut self) -> TermId {
        let u = self.rng.gen_range(0..self.universities);
        self.entity(university_uri(u))
    }

    fn named(&mut self, subject: TermId, label: &str) {
        let lit = self.literal(label);
        let p = self.v.name;
        self.add(subject, p, lit);
    }

    fn university(&mut self, u: usize) {
        let univ = self.entity(university_uri(u));
        self.typed(univ, self.v.university);
        self.named(univ, &format!("University{u}"));

        let n_depts = self.rng.gen_range(15..=20);
        for d in 0..n_depts {
            self.department(u, d, univ);
        }
    }

    fn department(&mut self, u: usize, d: usize, univ: TermId) {
        let dept = self.entity(department_uri(u, d));
        self.typed(dept, self.v.department);
        self.add(dept, self.v.sub_organization_of, univ);
        self.named(dept, &format!("Department{d}"));

        // Research groups.
        let n_groups = self.rng.gen_range(8..=12);
        for g in 0..n_groups {
            let group = self.entity(format!("{}/group{g}", department_uri(u, d)));
            self.typed(group, self.v.research_group);
            self.add(group, self.v.sub_organization_of, dept);
            if self.rng.gen_bool(0.5) {
                let project = self.entity(format!("{}/group{g}/research", department_uri(u, d)));
                self.typed(project, self.v.research);
                self.add(group, self.v.research_project, project);
            }
        }

        // Faculty.
        let mut faculty: Vec<TermId> = Vec::new();
        let mut professors: Vec<TermId> = Vec::new();
        let ranks = [
            (self.v.full_prof, self.rng.gen_range(7..=10), "fullProf", true),
            (self.v.assoc_prof, self.rng.gen_range(10..=14), "assocProf", true),
            (self.v.asst_prof, self.rng.gen_range(8..=11), "asstProf", true),
            (self.v.lecturer, self.rng.gen_range(5..=7), "lecturer", false),
        ];
        for (class, count, prefix, is_prof) in ranks {
            for i in 0..count {
                let person = self.entity(format!("{}/{prefix}{i}", department_uri(u, d)));
                // The department chair is a FullProfessor typed as
                // Chair (the most specific class) instead.
                let is_chair = class == self.v.full_prof && i == 0;
                self.typed(person, if is_chair { self.v.chair } else { class });
                if is_chair {
                    self.add(person, self.v.head_of, dept);
                } else {
                    self.add(person, self.v.works_for, dept);
                }
                let (ug, ms, dr) =
                    (self.random_university(), self.random_university(), self.random_university());
                self.add(person, self.v.undergrad_degree, ug);
                self.add(person, self.v.masters_degree, ms);
                self.add(person, self.v.doctoral_degree, dr);
                self.named(person, &format!("{prefix}{i}@dept{d}.univ{u}"));
                let email = self.literal(&format!("{prefix}{i}@dept{d}.univ{u}.jucq.org"));
                let p_email = self.v.email;
                self.add(person, p_email, email);
                faculty.push(person);
                if is_prof {
                    professors.push(person);
                }
            }
        }

        // Courses: two per faculty member, half graduate-level.
        let mut courses: Vec<TermId> = Vec::new();
        let mut grad_courses: Vec<TermId> = Vec::new();
        for (fi, &person) in faculty.iter().enumerate() {
            for k in 0..2 {
                let idx = fi * 2 + k;
                let course = self.entity(format!("{}/course{idx}", department_uri(u, d)));
                if idx % 2 == 0 {
                    self.typed(course, self.v.course);
                    courses.push(course);
                } else {
                    self.typed(course, self.v.graduate_course);
                    grad_courses.push(course);
                }
                self.add(person, self.v.teacher_of, course);
            }
        }

        // Publications by professors, with graduate co-authors added
        // once graduate students exist (below we collect pairs first).
        let mut publications: Vec<TermId> = Vec::new();
        for (pi, &prof) in professors.iter().enumerate() {
            let n_pubs = self.rng.gen_range(4..=8);
            for k in 0..n_pubs {
                let publication = self.entity(format!("{}/pub{pi}-{k}", department_uri(u, d)));
                let class = match self.rng.gen_range(0..10) {
                    0..=3 => self.v.journal_article,
                    4..=7 => self.v.conference_paper,
                    8 => self.v.technical_report,
                    _ => self.v.book,
                };
                self.typed(publication, class);
                self.add(publication, self.v.publication_author, prof);
                publications.push(publication);
            }
        }

        // Graduate students: ~3 per faculty member.
        let n_grads = faculty.len() * 3;
        for i in 0..n_grads {
            let grad = self.entity(format!("{}/grad{i}", department_uri(u, d)));
            self.typed(grad, self.v.grad);
            self.add(grad, self.v.member_of, dept);
            let ug = self.random_university();
            self.add(grad, self.v.undergrad_degree, ug);
            let prof = professors[self.rng.gen_range(0..professors.len())];
            self.add(grad, self.v.advisor, prof);
            for _ in 0..self.rng.gen_range(1..=3) {
                let c = grad_courses[self.rng.gen_range(0..grad_courses.len())];
                self.add(grad, self.v.takes_course, c);
            }
            self.named(grad, &format!("grad{i}@dept{d}.univ{u}"));
            // A fifth are teaching assistants, a fifth research
            // assistants (additional types).
            match i % 10 {
                0 | 5 => {
                    self.typed(grad, self.v.teaching_assistant);
                    let c = courses[self.rng.gen_range(0..courses.len())];
                    self.add(grad, self.v.teaching_assistant_of, c);
                }
                2 | 7 => self.typed(grad, self.v.research_assistant),
                _ => {}
            }
            // Co-author one publication in ~30% of cases.
            if self.rng.gen_bool(0.3) && !publications.is_empty() {
                let publication = publications[self.rng.gen_range(0..publications.len())];
                self.add(publication, self.v.publication_author, grad);
            }
        }

        // Undergraduates: ~8 per faculty member.
        let n_undergrads = faculty.len() * 8;
        for i in 0..n_undergrads {
            let student = self.entity(format!("{}/undergrad{i}", department_uri(u, d)));
            self.typed(student, self.v.undergrad);
            self.add(student, self.v.member_of, dept);
            for _ in 0..self.rng.gen_range(2..=3) {
                let c = courses[self.rng.gen_range(0..courses.len())];
                self.add(student, self.v.takes_course, c);
            }
            self.named(student, &format!("undergrad{i}@dept{d}.univ{u}"));
            // A fifth of undergraduates have a faculty advisor.
            if i % 5 == 0 {
                let prof = professors[self.rng.gen_range(0..professors.len())];
                self.add(student, self.v.advisor, prof);
            }
        }
    }
}

/// Generate a LUBM-like graph (ontology + data) for `config`.
pub fn generate(config: &LubmConfig) -> Graph {
    assert!(config.universities >= 1, "at least one university");
    let mut graph = Graph::new();
    Ontology::declare(&mut graph);
    let v = V::intern(&mut graph);
    let mut gen = Gen {
        graph: &mut graph,
        v,
        rng: StdRng::seed_from_u64(config.seed),
        universities: config.universities,
    };
    for u in 0..config.universities {
        gen.university(u);
    }
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use jucq_model::Term;

    #[test]
    fn deterministic_for_same_seed() {
        let a = generate(&LubmConfig::new(1));
        let b = generate(&LubmConfig::new(1));
        assert_eq!(a.data(), b.data());
        let c = generate(&LubmConfig { universities: 1, seed: 7 });
        assert_ne!(a.data(), c.data());
    }

    #[test]
    fn one_university_is_lubm_scale() {
        let g = generate(&LubmConfig::new(1));
        assert!((30_000..=120_000).contains(&g.len()), "LUBM(1) ≈ 100k triples; got {}", g.len());
    }

    #[test]
    fn scaling_is_roughly_linear() {
        let one = generate(&LubmConfig::new(1)).len();
        let three = generate(&LubmConfig::new(3)).len();
        assert!(three > 2 * one && three < 4 * one, "1→{one}, 3→{three}");
    }

    #[test]
    fn key_entities_exist_at_every_scale() {
        let g = generate(&LubmConfig::new(1));
        let d = g.dict();
        assert!(d.lookup(&Term::uri(university_uri(0))).is_some());
        assert!(d.lookup(&Term::uri(department_uri(0, 0))).is_some());
        assert!(d.lookup(&Term::uri(Ontology::uri("FullProfessor"))).is_some());
    }

    #[test]
    fn types_are_most_specific_only() {
        // No entity is directly typed `Person`, `Faculty` or
        // `Professor` — those are implicit.
        let mut g = generate(&LubmConfig::new(1));
        let ty = g.rdf_type();
        let d = g.dict();
        for general in ["Person", "Faculty", "Professor", "Student", "Publication"] {
            if let Some(c) = d.lookup(&Term::uri(Ontology::uri(general))) {
                let direct = g.data().iter().filter(|t| t.p == ty && t.o == c).count();
                assert_eq!(direct, 0, "{general} asserted directly");
            }
        }
    }

    #[test]
    fn chairs_head_their_department() {
        let mut g = generate(&LubmConfig::new(1));
        let ty = g.rdf_type();
        let d = g.dict();
        let chair = d.lookup(&Term::uri(Ontology::uri("Chair"))).unwrap();
        let head_of = d.lookup(&Term::uri(Ontology::uri("headOf"))).unwrap();
        let chairs: Vec<_> =
            g.data().iter().filter(|t| t.p == ty && t.o == chair).map(|t| t.s).collect();
        assert!(!chairs.is_empty());
        for c in chairs {
            assert!(
                g.data().iter().any(|t| t.s == c && t.p == head_of),
                "every chair heads something"
            );
        }
    }

    #[test]
    fn faculty_hold_three_degree_edges() {
        let mut g = generate(&LubmConfig::new(2));
        let ty = g.rdf_type();
        let d = g.dict();
        let full = d.lookup(&Term::uri(Ontology::uri("FullProfessor"))).unwrap();
        let ug = d.lookup(&Term::uri(Ontology::uri("undergraduateDegreeFrom"))).unwrap();
        let ms = d.lookup(&Term::uri(Ontology::uri("mastersDegreeFrom"))).unwrap();
        let dr = d.lookup(&Term::uri(Ontology::uri("doctoralDegreeFrom"))).unwrap();
        let a_prof = g
            .data()
            .iter()
            .find(|t| t.p == ty && t.o == full)
            .map(|t| t.s)
            .expect("some full professor");
        for p in [ug, ms, dr] {
            assert!(g.data().iter().any(|t| t.s == a_prof && t.p == p));
        }
    }

    #[test]
    fn literal_objects_only_on_literal_properties() {
        // Object properties must never carry literal objects, and
        // literal-bearing properties must be in LITERAL_PROPERTIES.
        use super::super::ontology::LITERAL_PROPERTIES;
        let g = generate(&LubmConfig::new(1));
        let d = g.dict();
        let literal_prop_ids: Vec<_> = LITERAL_PROPERTIES
            .iter()
            .filter_map(|p| d.lookup(&Term::uri(Ontology::uri(p))))
            .collect();
        for t in g.data() {
            if t.o.is_literal() {
                assert!(
                    literal_prop_ids.contains(&t.p),
                    "literal object under non-literal property {}",
                    d.lexical(t.p)
                );
            }
        }
    }
}
