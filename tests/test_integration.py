"""End-to-end integration scenarios across subsystems."""

from __future__ import annotations

from matching_reference import reference_images
from repro import equivalent_under, minimize
from repro.constraints.inference import infer_constraints
from repro.data import parse_ldif, parse_xml, to_xml
from repro.matching import EmbeddingEngine, evaluate, evaluate_nodes, satisfies
from repro.parsing import parse_xpath, to_xpath
from repro.schema import conforms, parse_schema

SCHEMA = """
element Catalog { Product* }
element Product { Name  Price  Review*  Vendor }
element Review  { Rating  Text? }
element Vendor  { Name }
type FeaturedProduct : Product
"""

DOCUMENT = """
<Catalog>
  <Product>
    <Name>Widget</Name><Price>10</Price>
    <Review><Rating>5</Rating><Text>great</Text></Review>
    <Vendor><Name>Acme</Name></Vendor>
  </Product>
  <FeaturedProduct repro:types="Product">
    <Name>Gadget</Name><Price>99</Price>
    <Vendor><Name>Globex</Name></Vendor>
  </FeaturedProduct>
</Catalog>
"""

LDIF = """
dn: o=Corp
objectClass: Organization

dn: ou=Research,o=Corp
objectClass: Dept

dn: cn=Grace,ou=Research,o=Corp
objectClass: Manager
objectClass: Employee
objectClass: Person

dn: cn=TreePatterns,ou=Research,o=Corp
objectClass: DBproject
objectClass: Project
"""


class TestXmlScenario:
    def setup_method(self):
        self.schema = parse_schema(SCHEMA)
        self.constraints = infer_constraints(self.schema)
        self.tree = parse_xml(DOCUMENT)

    def test_document_conforms_and_satisfies(self):
        assert conforms(self.tree, self.schema)
        assert satisfies(self.tree, self.constraints)

    def test_schema_knowledge_shrinks_queries(self):
        # "products that have a price, a vendor with a name, and a name"
        query = parse_xpath("Catalog/Product*[Price][Vendor/Name][Name]")
        result = minimize(query, self.constraints)
        assert result.pattern.size == 2  # Catalog/Product
        assert to_xpath(result.pattern) == "Catalog/Product"
        assert equivalent_under(query, result.pattern, self.constraints)

    def test_answers_preserved_on_the_document(self):
        query = parse_xpath("Catalog/Product*[Price][Vendor/Name][Name]")
        result = minimize(query, self.constraints)
        assert evaluate(query, self.tree) == evaluate(result.pattern, self.tree)
        names = sorted(
            c.value
            for node in evaluate_nodes(result.pattern, self.tree)
            for c in node.children
            if "Name" in c.types
        )
        assert names == ["Gadget", "Widget"]

    def test_co_occurrence_from_schema_type_declaration(self):
        # FeaturedProduct ~ Product: a query for products finds the
        # featured one too; minimization may rely on it.
        featured = parse_xpath("Catalog/FeaturedProduct*")
        products = parse_xpath("Catalog/Product*")
        assert evaluate(featured, self.tree) <= evaluate(products, self.tree)
        both = parse_xpath("Catalog*[FeaturedProduct][Product]")
        result = minimize(both, self.constraints)
        assert result.pattern.size == 2  # the Product branch is implied

    def test_both_engines_agree_on_document(self):
        """The DP against the definition-level reference matcher."""
        for text in (
            "Catalog//Name",
            "Product*[Review/Rating]",
            "Catalog/Product*[.//Name][Vendor]",
        ):
            pattern = parse_xpath(text)
            assert (
                EmbeddingEngine(pattern, self.tree).answer_set()
                == reference_images(pattern, self.tree)
            ), text

    def test_xml_round_trip_preserves_answers(self):
        pattern = parse_xpath("Catalog/Product*[Vendor]")
        reparsed = parse_xml(to_xml(self.tree))
        assert len(evaluate(pattern, self.tree)) == len(evaluate(pattern, reparsed))


class TestDirectoryScenario:
    def setup_method(self):
        self.directory = parse_ldif(LDIF)
        from repro.constraints import parse_constraints

        self.constraints = parse_constraints(
            """
            Dept ->> Manager
            Manager ~ Employee
            Employee ~ Person
            DBproject ~ Project
            """
        )

    def test_directory_satisfies(self):
        assert satisfies(self.directory.tree, self.constraints)

    def test_directory_query_minimization(self):
        query = parse_xpath(
            "Organization*[.//Dept[.//Manager][.//Person]][.//Project]"
        )
        result = minimize(query, self.constraints)
        # Manager is implied below Dept; the manager IS a person; only the
        # Project branch (not implied) must stay.
        assert result.pattern.size == 3
        assert evaluate(query, self.directory.tree) == evaluate(
            result.pattern, self.directory.tree
        )

    def test_multi_class_matching(self):
        projects = parse_xpath("Organization//Project*")
        dbprojects = parse_xpath("Organization//DBproject*")
        assert evaluate(dbprojects, self.directory.tree) <= evaluate(
            projects, self.directory.tree
        )
